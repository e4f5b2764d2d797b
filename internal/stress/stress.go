// Package stress is the sustained-load driver behind cmd/nezha-stress and
// the CI soak tier: it runs an in-process multi-node cluster whose miners
// front the admission-controlled mempool (internal/mempool), feeds it a
// continuous workload stream at a configurable rate, and measures
// admission-to-commit latency from the blocks each epoch actually
// commits.
//
// Two pacing modes, after the classic load-generator split:
//
//   - Open loop (TargetTPS > 0): transactions arrive on a fixed schedule
//     regardless of how the system keeps up, so queueing delay shows up
//     in the latency distribution instead of silently throttling the
//     offered load. This is the honest mode for "can it sustain X TPS".
//   - Closed loop (TargetTPS == 0): a bounded number of in-flight
//     transactions; a commit refills the submission budget. This finds
//     the system's natural throughput without unbounded queue growth.
//
// Run is also the soak oracle: every round it asserts that every two
// nodes recorded the same root for each epoch both processed
// (cluster.Agree), and that the commit watermark keeps advancing (no stall
// longer than StallTimeout). Chaos soaks arm failpoints (fail.Enable is
// permitted here by the repo's failpoint analyzer, as in internal/chaos)
// and assert the same invariants under injected faults.
package stress

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/nezha-dag/nezha/internal/cluster"
	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/crypto"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
)

// Config parameterizes one stress run.
type Config struct {
	// Workload is the transaction stream (required; see NewWorkload).
	Workload Workload
	// Nodes is the cluster size; every node mines and every node
	// processes every block, so root agreement is checked across Nodes
	// independent pipeline executions. Default 2.
	Nodes int
	// Chains is the OHIE parallel-chain count. Default 4.
	Chains int
	// BlockSize caps transactions per block. Default 200 (§VI-A).
	BlockSize int
	// DifficultyBits sets the PoW difficulty. Default 0 (instant
	// mining): the stress target is the ingestion and pipeline path, not
	// the hash race.
	DifficultyBits int
	// Duration bounds the run (required).
	Duration time.Duration
	// TargetTPS selects open-loop pacing when positive; 0 runs closed
	// loop.
	TargetTPS float64
	// InFlight bounds submitted-but-uncommitted transactions in closed
	// loop (default 4×BlockSize×Nodes). Open loop ignores it.
	InFlight int
	// Mempool overrides the admission pool configuration. StrictNonce is
	// forced on — the driver's workloads generate dense per-sender
	// nonces, and assembly must not ship gaps.
	Mempool mempool.Config
	// VerifySignatures admits only signature-checked transactions (pair
	// with Options.Sign).
	VerifySignatures bool
	// Scheduler names the concurrency control: "nezha" (default) or
	// "serial".
	Scheduler string
	// StallTimeout fails the run if no epoch commits for this long
	// (default 30s). This is the soak tier's liveness oracle.
	StallTimeout time.Duration
	// Failpoints are armed for the whole run (chaos soak), with Seed
	// fixing the probabilistic ones. The set is reset on return.
	Failpoints map[fail.Name]fail.Spec
	// Seed feeds fail.Seed when Failpoints are armed.
	Seed int64
	// JournalDir, when set, enables the flight recorder for the run and
	// dumps every node's journal there on exit — the forensics artifact
	// the soak tier uploads.
	JournalDir string

	// settled, when set, sees every submitted transaction the measured
	// node settles, with its outcome (tests only).
	settled func(h types.Hash, committed bool)
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.Chains <= 0 {
		c.Chains = 4
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 200
	}
	if c.InFlight <= 0 {
		c.InFlight = 4 * c.BlockSize * c.Nodes
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.Scheduler == "" {
		c.Scheduler = "nezha"
	}
	return c
}

// Report is the outcome of a run: throughput, the latency distribution,
// and the oracle verdicts.
type Report struct {
	Workload  string
	Nodes     int
	Duration  time.Duration
	OpenLoop  bool
	TargetTPS float64

	// Every submitted transaction ends in exactly one of the next four:
	// Submitted == Committed + Aborted + Lost + InFlight.
	Submitted int // transactions offered to admission
	Admitted  int // transactions accepted into the pool
	Committed int // submitted transactions the measured node committed
	Aborted   int // aborted by the scheduler or failed in execution: final, nothing retries them
	Lost      int // in-flight entries reclaimed after lostAfter (dropped or stranded in stale forks)
	InFlight  int // still unsettled when the run ended
	Epochs    uint64

	// SigFull[i] is how many full Ed25519 verifications node i's admission
	// ran (VerifySignatures runs only), SigPipeline how many all the
	// nodes' validation stages added. In-process gossip hands every pool
	// the same transaction objects, so the verdict the first pool attaches
	// is carried by every other pool and by every pipeline.
	SigFull     []int
	SigPipeline int

	CommitTPS float64
	// P50/P95/P99 are admission-to-commit latencies of the Committed
	// transactions, estimated from a fixed-bucket histogram (resolution is
	// bucket width); LatencySamples is how many it holds.
	P50, P95, P99  time.Duration
	LatencySamples uint64
	// MaxCommitGap is the longest observed wall-clock gap between
	// consecutive epoch commits — the watermark-liveness figure.
	MaxCommitGap time.Duration
	FinalEpoch   uint64
	FinalRoot    types.Hash
}

// String renders the report as the human-readable block nezha-stress
// prints.
func (r *Report) String() string {
	mode := "closed-loop"
	if r.OpenLoop {
		mode = fmt.Sprintf("open-loop @ %.0f TPS", r.TargetTPS)
	}
	s := fmt.Sprintf(
		"stress: %s, %d nodes, %s, %v\n"+
			"  submitted %d, admitted %d, %d epochs\n"+
			"  submitted = committed %d + aborted %d + lost %d + in flight %d\n"+
			"  commit throughput %.0f tx/s\n"+
			"  latency p50 %v  p95 %v  p99 %v (admission→commit, committed only)\n"+
			"  max commit gap %v, final epoch %d, root %s",
		r.Workload, r.Nodes, mode, r.Duration.Round(time.Millisecond),
		r.Submitted, r.Admitted, r.Epochs,
		r.Committed, r.Aborted, r.Lost, r.InFlight,
		r.CommitTPS,
		r.P50.Round(10*time.Microsecond), r.P95.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond),
		r.MaxCommitGap.Round(time.Millisecond), r.FinalEpoch, r.FinalRoot.Short())
	if r.SigFull != nil {
		s += fmt.Sprintf("\n  full signature verifies: %v at admission per node, %d in the pipelines"+
			" (in-process gossip shares transaction objects, so verdicts travel with them)",
			r.SigFull, r.SigPipeline)
	}
	return s
}

// submitBatch caps how many transactions one pacing round generates, so
// a high TargetTPS cannot stall the round loop building one giant batch.
const submitBatch = 2048

// lostAfter is how long an in-flight transaction may go uncommitted
// before the sweep reclaims its pacing slot (it was dropped at admission
// on every pool, or stranded in a stale fork).
const lostAfter = 5 * time.Second

// Run executes one stress run and returns its report. A non-nil error
// means an oracle failed (state divergence, commit stall) or the cluster
// broke; the report is still populated as far as the run got.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("stress: Config.Workload is required")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("stress: Config.Duration is required")
	}
	var perMember func(int, *node.Config)
	switch cfg.Scheduler {
	case "nezha":
		perMember = cluster.Nezha
	case "serial":
	default:
		return nil, fmt.Errorf("stress: unknown scheduler %q (nezha | serial)", cfg.Scheduler)
	}

	if len(cfg.Failpoints) > 0 {
		fail.Seed(cfg.Seed)
		for name, spec := range cfg.Failpoints {
			fail.Enable(name, spec)
		}
		defer fail.Reset()
	}
	if cfg.JournalDir != "" {
		journal.Reset()
		journal.Enable()
		defer journal.Disable()
	}

	mpCfg := cfg.Mempool
	mpCfg.StrictNonce = true
	mpCfg.VerifySignatures = cfg.VerifySignatures

	// Build the cluster. Every node runs the full pipeline over the same
	// block set; node 0 is the measurement vantage point.
	ids := make([]string, cfg.Nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("stress-%d", i)
	}
	c, err := cluster.New(cluster.Config{
		IDs:       ids,
		Miners:    cfg.Nodes,
		BlockSize: cfg.BlockSize,
		Node: node.Config{
			Consensus:        consensus.Params{Chains: cfg.Chains, DifficultyBits: cfg.DifficultyBits},
			Contracts:        cfg.Workload.Contracts(),
			GenesisWrites:    cfg.Workload.Genesis(),
			VerifySignatures: cfg.VerifySignatures,
			RetainEpochStats: 64,
			Mempool:          mpCfg,
		},
		PerMember: perMember,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	members, lead := c.Members, c.Members[0].Node
	if cfg.JournalDir != "" {
		defer func() {
			if err := journal.DumpAll(cfg.JournalDir); err != nil {
				fmt.Printf("stress: journal dump: %v\n", err)
			}
		}()
	}

	// The latency series lives in a fresh registry so back-to-back runs
	// (tests, sweeps) do not accumulate into one histogram.
	reg := metrics.NewRegistry()
	latency := reg.Histogram("nezha_stress_commit_latency_seconds",
		"Admission-to-commit latency of stress-driven transactions.", nil)

	rep := &Report{
		Workload: cfg.Workload.Name(), Nodes: cfg.Nodes,
		OpenLoop: cfg.TargetTPS > 0, TargetTPS: cfg.TargetTPS,
	}
	submitTimes := make(map[types.Hash]time.Time, cfg.InFlight)
	sigFull := crypto.SigCounter("full").Value()
	if cfg.VerifySignatures {
		rep.SigFull = make([]int, cfg.Nodes)
	}
	start := time.Now()
	lastCommit := start
	lastSweep := start
	deadline := start.Add(cfg.Duration)

	for now := start; now.Before(deadline); now = time.Now() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}

		// Pacing: how many transactions does this round owe?
		due := 0
		if cfg.TargetTPS > 0 {
			due = int(cfg.TargetTPS*now.Sub(start).Seconds()) - rep.Submitted
		} else {
			due = cfg.InFlight - len(submitTimes)
		}
		if due > submitBatch {
			due = submitBatch
		}
		if due <= 0 {
			// Ahead of schedule (or the window is full): yield briefly so
			// an idle cluster does not spin mining empty blocks flat out.
			time.Sleep(500 * time.Microsecond)
		} else {
			batch := make([]*types.Transaction, due)
			for i := range batch {
				batch[i] = cfg.Workload.NextTx()
			}
			// Instant gossip: the batch reaches every miner's pool. Each
			// pool admits independently; epoch assembly dedupes by hash.
			for mi, m := range members {
				if cfg.VerifySignatures {
					// This loop is the only admission in the process, so what
					// reaches a pool without a verdict is what it verifies.
					for _, tx := range batch {
						if !tx.SigVerified() {
							rep.SigFull[mi]++
						}
					}
				}
				n, _ := m.Miner.Pool().AdmitBatch(batch)
				if mi == 0 {
					rep.Admitted += n
				}
			}
			submitted := time.Now()
			for _, tx := range batch {
				submitTimes[tx.Hash()] = submitted
			}
			rep.Submitted += due
		}

		// One mining round: every miner races a candidate; accepted
		// blocks replicate to the whole cluster (stale forks are normal).
		for i, m := range members {
			mineCtx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
			b, err := m.Miner.Mine(mineCtx)
			cancel()
			if err != nil {
				if ctx.Err() != nil {
					return rep, ctx.Err()
				}
				continue // cancelled search; next round
			}
			if err := m.Node.SubmitBlock(b); err != nil {
				continue // lost the fork race locally
			}
			for j, peer := range members {
				if j == i {
					continue
				}
				if err := peer.Node.SubmitBlock(b); err == nil {
					// Optimistically advance the peer pool's floors past
					// the replicated block's transactions, as a real
					// mempool does on new-block import: without this,
					// every miner re-assembles the whole gossiped stream
					// and epochs commit near-duplicate blocks. A block
					// that later loses its fork race strands its txs —
					// the in-flight sweep below reclaims them.
					peer.Miner.Pool().MarkIncluded(b.Txs)
				}
			}
		}

		// Processing round: every node advances; node 0 is measured.
		for i, m := range members {
			results, err := m.Node.ProcessReadyEpochs()
			if err != nil {
				return rep, fmt.Errorf("stress: %s: %w", m.ID, err)
			}
			for _, r := range results {
				blocks, ok := m.Node.Ledger().EpochBlocks(r.Epoch)
				if !ok {
					continue
				}
				// The node numbered the transactions over the blocks that
				// survived validation; the schedule speaks in those ids.
				etxs := types.NewEpoch(r.Epoch, slices.DeleteFunc(blocks, func(b *types.Block) bool {
					return slices.Contains(r.Discarded, b.Hash())
				})).Txs
				// A committed epoch is final: advance this node's own
				// inclusion floors past its transactions, so a tx one
				// miner included stops being re-assembled by the others
				// (each pool admitted the whole gossiped stream).
				m.Miner.Pool().MarkIncluded(etxs)
				if i != 0 {
					continue
				}
				commitTime := time.Now()
				if gap := commitTime.Sub(lastCommit); gap > rep.MaxCommitGap {
					rep.MaxCommitGap = gap
				}
				lastCommit = commitTime
				rep.Epochs++
				for _, tx := range etxs {
					t0, ok := submitTimes[tx.Hash()]
					if !ok {
						continue // reclaimed as lost before its block made it
					}
					delete(submitTimes, tx.Hash())
					committed := r.Schedule.IsCommitted(tx.ID)
					if committed {
						rep.Committed++
						latency.ObserveDuration(commitTime.Sub(t0))
					} else {
						rep.Aborted++
					}
					if cfg.settled != nil {
						cfg.settled(tx.Hash(), committed)
					}
				}
			}
		}

		// Reclaim transactions that will never commit — dropped by an
		// admission fault on every pool, or stranded in a block that lost
		// its fork race. Without the sweep, closed-loop pacing treats
		// them as forever in flight and the window starves.
		if now := time.Now(); now.Sub(lastSweep) > time.Second {
			lastSweep = now
			for h, t0 := range submitTimes {
				if now.Sub(t0) > lostAfter {
					delete(submitTimes, h)
					rep.Lost++
				}
			}
		}

		// Oracles: divergence is fatal immediately; so is a stalled
		// commit watermark.
		if err := c.Agree(); err != nil {
			return rep, fmt.Errorf("stress: state divergence: %w", err)
		}
		if time.Since(lastCommit) > cfg.StallTimeout {
			return rep, fmt.Errorf("stress: commit watermark stalled: no epoch in %v (next epoch %d)",
				cfg.StallTimeout, lead.NextEpoch())
		}
	}

	rep.Duration = time.Since(start)
	rep.InFlight = len(submitTimes)
	if cfg.VerifySignatures {
		rep.SigPipeline = int(crypto.SigCounter("full").Value() - sigFull)
		for _, n := range rep.SigFull {
			rep.SigPipeline -= n
		}
	}
	rep.FinalEpoch = lead.NextEpoch() - 1
	rep.FinalRoot = lead.StateRoot()
	if rep.Duration > 0 {
		rep.CommitTPS = float64(rep.Committed) / rep.Duration.Seconds()
	}
	quantile := func(q float64) time.Duration {
		return time.Duration(latency.Quantile(q) * float64(time.Second))
	}
	rep.LatencySamples = latency.Count()
	if latency.Count() > 0 {
		rep.P50, rep.P95, rep.P99 = quantile(0.50), quantile(0.95), quantile(0.99)
	}
	if rep.Epochs == 0 {
		return rep, fmt.Errorf("stress: no epoch committed in %v", cfg.Duration)
	}
	return rep, nil
}
