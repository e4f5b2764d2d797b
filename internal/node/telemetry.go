package node

// Live-telemetry hooks: every processed epoch updates the process-wide
// metrics registry (metrics.Default()) so a running node can be scraped
// over /metrics while the per-epoch Collector keeps the detailed record
// the benches read. Series carry a node label because simulations run
// several nodes in one process; a production deployment has one.

import (
	"time"

	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/mvcc"
)

// recordStageMetrics exports one stage's counters after it ran.
func (n *Node) recordStageMetrics(stage string, ss metrics.StageStat) {
	reg := metrics.Default()
	nl := metrics.Label{Name: "node", Value: n.id}
	sl := metrics.Label{Name: "stage", Value: stage}
	reg.Histogram("nezha_stage_duration_seconds",
		"Wall-clock duration of each pipeline stage (Fig. 2(b) phases).",
		nil, nl, sl).ObserveDuration(ss.Duration)
	reg.Counter("nezha_stage_tasks_total",
		"Work items processed per stage (blocks, transactions, commits).",
		nl, sl).Add(float64(ss.Tasks))
	reg.Counter("nezha_stage_busy_seconds_total",
		"Summed per-worker busy span per stage; divide by capacity for occupancy.",
		nl, sl).Add(ss.Busy.Seconds())
	reg.Counter("nezha_stage_capacity_seconds_total",
		"Summed (duration+overlap)*workers per stage (the occupancy denominator).",
		nl, sl).Add(ss.CapacitySpan().Seconds())
	reg.Counter("nezha_stage_overlap_seconds_total",
		"Stage work that ran in the background before the epoch was processed (signature prevalidation, the look-ahead run's execution, scheduling and staging).",
		nl, sl).Add(ss.Overlap.Seconds())
	reg.Gauge("nezha_stage_occupancy",
		"Worker-pool occupancy of the stage in the last processed epoch.",
		nl, sl).Set(ss.Occupancy())
}

// recordLookahead counts what became of the look-ahead run one epoch of the
// concurrent pipeline could have adopted.
func (n *Node) recordLookahead(outcome string) {
	metrics.Default().Counter("nezha_node_lookahead_total",
		"Epochs by the fate of the look-ahead run started for them under the previous commit: adopted, discarded (blocks or state differed from what it assumed, or the epoch around it failed), none (first epoch, lagging ledger, assembled epoch).",
		metrics.Label{Name: "node", Value: n.id}, metrics.Label{Name: "outcome", Value: outcome}).Inc()
}

// recordLookaheadWait observes how long one stage of an adopting epoch
// blocked on the look-ahead run.
func (n *Node) recordLookaheadWait(stage string, wait time.Duration) {
	metrics.Default().Histogram("nezha_node_lookahead_wait_seconds",
		"Time a stage of an epoch that adopted its look-ahead run blocked waiting for the part of the run it takes over (execute: the execution, schedule: the schedule, commit: the staging).",
		nil, metrics.Label{Name: "node", Value: n.id}, metrics.Label{Name: "stage", Value: stage}).ObserveDuration(wait)
}

// recordStaged counts an epoch whose commit adopted the batch its
// look-ahead run staged, and so only flushed.
func (n *Node) recordStaged() {
	metrics.Default().Counter("nezha_node_lookahead_staged_total",
		"Epochs whose commit adopted the write batch the look-ahead run had already applied to the trie and hashed, leaving the seal only the flush.",
		metrics.Label{Name: "node", Value: n.id}).Inc()
}

// recordEpochMetrics exports epoch-level counters after the epoch
// committed. Called with n.mu held.
func (n *Node) recordEpochMetrics(stats *metrics.EpochStats, discarded int) {
	reg := metrics.Default()
	nl := metrics.Label{Name: "node", Value: n.id}
	reg.Counter("nezha_epochs_processed_total",
		"Epochs fully processed (validate through commit).", nl).Inc()
	reg.Counter("nezha_txs_total",
		"Transactions entering the pipeline after block validation.", nl).Add(float64(stats.Txs))
	reg.Counter("nezha_txs_committed_total",
		"Transactions committed by concurrency control (Fig. 12 numerator).", nl).Add(float64(stats.Committed))
	reg.Counter("nezha_txs_aborted_total",
		"Transactions aborted by the scheduler (Fig. 11 numerator).", nl).Add(float64(stats.Aborted))
	reg.Counter("nezha_txs_execution_failed_total",
		"Speculative executions that failed (revert/out-of-gas).", nl).Add(float64(stats.ExecutionFailed))
	reg.Counter("nezha_blocks_discarded_total",
		"Blocks dropped by validation (bad state root or signature).", nl).Add(float64(discarded))
	reg.Gauge("nezha_node_next_epoch",
		"Next epoch number the node will process.", nl).Set(float64(stats.Epoch + 1))
	reg.Gauge("nezha_epoch_block_concurrency",
		"Blocks forming the last processed epoch (the paper's omega).", nl).Set(float64(stats.BlockConcurrency))
	if mv, ok := n.state.MVCCStats(); ok {
		n.recordMVCCMetrics(mv)
	}
}

// recordMVCCMetrics exports the multi-version store's counters. The store
// keeps cumulative totals, so the node diffs against the last exported
// snapshot to keep the registry counters monotonic. Called with n.mu held.
func (n *Node) recordMVCCMetrics(cur mvcc.Stats) {
	reg := metrics.Default()
	nl := metrics.Label{Name: "node", Value: n.id}
	prev := n.prevMVCC
	n.prevMVCC = cur
	reg.Counter("nezha_mvcc_cache_hits_total",
		"Execution reads served by the MVCC version cache.", nl).Add(float64(cur.Hits - prev.Hits))
	reg.Counter("nezha_mvcc_cache_misses_total",
		"Execution reads that fell through to the state trie.", nl).Add(float64(cur.Misses - prev.Misses))
	reg.Counter("nezha_mvcc_gc_versions_total",
		"Versions folded into chain bases by the GC watermark.", nl).Add(float64(cur.GCVersions - prev.GCVersions))
	reg.Gauge("nezha_mvcc_live_chains",
		"Per-key version chains (cache entries) currently held.", nl).Set(float64(cur.Chains))
	reg.Gauge("nezha_mvcc_live_versions",
		"Committed versions retained above the GC watermark.", nl).Set(float64(cur.Versions))
	depth := reg.Histogram("nezha_mvcc_chain_depth",
		"Depth of the version chains GC folded (chains written since the previous fold).", mvcc.DepthBuckets, nl)
	for i, count := range cur.DepthBuckets {
		rep := 2 * mvcc.DepthBuckets[len(mvcc.DepthBuckets)-1] // overflow bucket representative
		if i < len(mvcc.DepthBuckets) {
			rep = mvcc.DepthBuckets[i]
		}
		depth.ObserveN(rep, count-prev.DepthBuckets[i])
	}
}

// SetTracer attaches an epoch tracer: every subsequent stage records a
// span (and the background prevalidation and look-ahead run theirs), exportable
// as Chrome trace-event JSON. Pass nil to stop tracing.
func (n *Node) SetTracer(t *metrics.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = t
}
