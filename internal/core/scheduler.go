package core

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
)

// Live counters on the default registry: scheduling runs, abort totals by
// reason, and the §IV-D reorder rescues (aborts the enhancement avoided).
var (
	schedRuns = metrics.Default().Counter("nezha_sched_runs_total",
		"Scheduler invocations: one per processed epoch, plus one per look-ahead run a node started and then discarded.", schemeLabel)
	schedTxs = metrics.Default().Counter("nezha_sched_txs_total",
		"Simulation results entering concurrency control.", schemeLabel)
	schedCommits = metrics.Default().Counter("nezha_sched_commits_total",
		"Transactions committed by concurrency control.", schemeLabel)
	schedAborts = metrics.Default().Counter("nezha_sched_aborts_total",
		"Transactions aborted as unserializable (Fig. 11).", schemeLabel)
	schedRescues = metrics.Default().Counter("nezha_sched_reorder_rescues_total",
		"Write-write conflicts re-sequenced by the reordering enhancement instead of aborted.", schemeLabel)
)

var schemeLabel = metrics.Label{Name: "scheme", Value: "nezha"}

// Config tunes the Nezha scheduler. The zero value is NOT valid; use
// DefaultConfig (the paper's full design) and override fields as needed.
type Config struct {
	// Reorder enables the enhanced design of §IV-D: unserializable
	// transactions caused by write-write dependencies are re-sequenced
	// above the conflicting units instead of aborted.
	Reorder bool
	// Heuristic selects the cycle-breaking rule of Algorithm 1.
	Heuristic RankHeuristic
	// SkipSafetySweep disables the final strict-serializability pass.
	// Only benchmarks comparing against the paper-literal algorithm set
	// this; the schedules may then (rarely) violate strict per-address
	// invariants.
	SkipSafetySweep bool
	// Parallelism is the worker fan-out of the sharded ACG builder and
	// the cluster-parallel sorter: 0 means GOMAXPROCS, 1 selects the
	// sequential reference implementations, and negative values are
	// rejected. Every setting produces byte-identical schedules — the
	// knob trades goroutine overhead against multi-core speedup, never
	// determinism (the cross-implementation tests assert exactly that).
	Parallelism int
	// InjectFault deliberately breaks one scheduler rule (see Fault).
	// Only the differential harness's meta-tests set it, to prove the
	// serializability oracle has teeth; leave it at FaultNone everywhere
	// else.
	InjectFault Fault
}

// DefaultConfig returns the configuration evaluated in the paper:
// reordering on, max-out-degree rank heuristic, safety sweep on, and the
// parallel core sized to the machine.
func DefaultConfig() Config {
	return Config{Reorder: true, Heuristic: RankMaxOutDegree}
}

// minParallelTxs is the epoch size below which Schedule always takes the
// sequential path: goroutine fan-out costs more than it saves on tiny
// epochs. Output is unaffected — both paths produce identical schedules.
const minParallelTxs = 128

// Scheduler is the Nezha concurrency-control scheme (§IV). It is stateless
// across epochs and safe for concurrent use by multiple goroutines (each
// Schedule call builds its own working state).
type Scheduler struct {
	cfg Config
}

var _ types.Scheduler = (*Scheduler)(nil)

// NewScheduler returns a Nezha scheduler with the given configuration.
func NewScheduler(cfg Config) (*Scheduler, error) {
	switch cfg.Heuristic {
	case RankMaxOutDegree, RankMinSubscript:
	default:
		return nil, fmt.Errorf("core: unknown rank heuristic %d", cfg.Heuristic)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: negative parallelism %d", cfg.Parallelism)
	}
	switch cfg.InjectFault {
	case FaultNone, FaultFlipRescue, FaultDropStatelessSeq:
	default:
		return nil, fmt.Errorf("core: unknown injected fault %d", cfg.InjectFault)
	}
	return &Scheduler{cfg: cfg}, nil
}

// MustNewScheduler is NewScheduler for static configurations; it panics on
// an invalid config.
func MustNewScheduler(cfg Config) *Scheduler {
	s, err := NewScheduler(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements types.Scheduler.
func (n *Scheduler) Name() string { return "nezha" }

// parallelism resolves the configured fan-out for an epoch of the given
// size: 0 expands to GOMAXPROCS, and epochs below minParallelTxs always
// run sequentially.
func (n *Scheduler) parallelism(txs int) int {
	p := n.cfg.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if txs < minParallelTxs {
		return 1
	}
	return p
}

// Schedule implements types.Scheduler: ACG construction, sorting-rank
// division, per-address transaction sorting (plus reordering and the safety
// sweep), then schedule assembly. The returned breakdown maps onto the
// paper's Fig. 10 phases and records the fan-out shape of the parallel
// core (shards, conflict clusters).
//
// With Parallelism != 1 the graph is built by the key-sharded parallel
// builder and sorting fans out across conflict-closure clusters; the
// schedule is byte-identical to the sequential reference either way.
func (n *Scheduler) Schedule(sims []*types.SimResult) (*types.Schedule, types.PhaseBreakdown, error) {
	var pb types.PhaseBreakdown
	par := n.parallelism(len(sims))

	start := time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	var acg *ACG
	if par > 1 {
		acg = BuildACGSharded(sims, par)
	} else {
		acg = BuildACG(sims)
	}
	pb.Shards = par
	pb.Graph = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule

	start = time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	ranks := RankAddresses(acg, n.cfg.Heuristic)
	pb.Cycle = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule

	start = time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	srt := newSorter(acg, n.cfg.Reorder, n.cfg.InjectFault)
	if par > 1 {
		clusters := conflictClusters(acg, ranks)
		// Largest first (ties keep rank order) so that one dominant
		// cluster does not start last and leave the other workers idle.
		slices.SortStableFunc(clusters, func(a, b []int) int { return len(b) - len(a) })
		pb.SortClusters = len(clusters)
		pb.MaxClusterAddrs = maxClusterLen(clusters)
		srt.runParallel(clusters, par)
		if !n.cfg.SkipSafetySweep {
			srt.safetySweepParallel(clusters, par)
		}
	} else {
		srt.run(ranks)
		if !n.cfg.SkipSafetySweep {
			srt.safetySweep(ranks)
		}
	}
	srt.finish()

	sched := types.NewSchedule()
	for _, sim := range sims {
		id := sim.Tx.ID
		if srt.aborted[id] {
			sched.Abort(id, types.AbortUnserializable)
			continue
		}
		sched.Commit(id, srt.seqOf[id])
	}
	sched.NormalizeAborts()
	pb.Sort = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	pb.Rescued = int(srt.rescued.Load())

	schedRuns.Inc()
	schedTxs.Add(float64(len(sims)))
	schedCommits.Add(float64(sched.CommittedCount()))
	schedAborts.Add(float64(sched.AbortedCount()))
	schedRescues.Add(float64(pb.Rescued))

	return sched, pb, nil
}
