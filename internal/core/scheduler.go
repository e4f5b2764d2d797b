package core

import (
	"fmt"
	"sync"
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
	// Parallelism is read by nothing: the scheduler runs on the caller's
	// goroutine. It stays compiled only because the repo benchmark
	// (benchmark/layers.go) still sets it; ROADMAP item 2(a) deletes it
	// together with that line.
	Parallelism int
	// InjectFault deliberately breaks one scheduler rule (see Fault).
	// Only the differential harness's meta-tests set it, to prove the
	// serializability oracle has teeth; leave it at FaultNone everywhere
	// else.
	InjectFault Fault
}

// DefaultConfig returns the configuration evaluated in the paper:
// reordering on, max-out-degree rank heuristic, safety sweep on.
func DefaultConfig() Config {
	return Config{Reorder: true, Heuristic: RankMaxOutDegree}
}

// Scheduler is the Nezha concurrency-control scheme (§IV). It is safe for
// concurrent use by multiple goroutines: each Schedule call works in a
// working state of its own, taken from the instance's free list (or built,
// when every one is in use) and returned to it when the call returns, so an
// epoch sorts in the arrays an earlier epoch grew. Nothing a call returns
// points into its working state, and two instances share none.
type Scheduler struct {
	cfg Config

	mu   sync.Mutex
	free []*workspace
}

// workspace is one Schedule call's working state: the graph with its key
// numbering, rank division's arrays and the sorter's.
type workspace struct {
	acg ACG
	kx  keyIndex
	rk  ranker
	srt sorter
}

var _ types.Scheduler = (*Scheduler)(nil)

// NewScheduler returns a Nezha scheduler with the given configuration.
func NewScheduler(cfg Config) (*Scheduler, error) {
	switch cfg.Heuristic {
	case RankMaxOutDegree, RankMinSubscript:
	default:
		return nil, fmt.Errorf("core: unknown rank heuristic %d", cfg.Heuristic)
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

// Schedule implements types.Scheduler: ACG construction, sorting-rank
// division, per-address transaction sorting (plus reordering and the safety
// sweep), then schedule assembly, all on the caller's goroutine. The
// returned breakdown maps onto the paper's Fig. 10 phases.
func (n *Scheduler) Schedule(sims []*types.SimResult) (*types.Schedule, types.PhaseBreakdown, error) {
	var pb types.PhaseBreakdown
	ws := n.take()
	defer n.give(ws)

	start := time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	acg := &ws.acg
	acg.build(sims, &ws.kx)
	pb.Graph = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule

	start = time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	ranks := ws.rk.rank(acg, n.cfg.Heuristic)
	pb.Cycle = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule

	start = time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	srt := &ws.srt
	srt.reset(acg, n.cfg.Reorder, n.cfg.InjectFault)
	srt.run(ranks)
	if !n.cfg.SkipSafetySweep {
		srt.safetySweep()
	}
	srt.finish()

	aborts := 0
	for _, sim := range sims {
		if srt.aborted[sim.Tx.ID] {
			aborts++
		}
	}
	sched := &types.Schedule{
		Seqs:    make(map[types.TxID]types.Seq, len(sims)-aborts),
		Aborted: make([]types.Abort, 0, aborts),
	}
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
	pb.Rescued = srt.rescued

	schedRuns.Inc()
	schedTxs.Add(float64(len(sims)))
	schedCommits.Add(float64(sched.CommittedCount()))
	schedAborts.Add(float64(sched.AbortedCount()))
	schedRescues.Add(float64(pb.Rescued))

	return sched, pb, nil
}

// take hands a call a working state nobody else holds.
func (n *Scheduler) take() *workspace {
	n.mu.Lock()
	defer n.mu.Unlock()
	if k := len(n.free); k > 0 {
		ws := n.free[k-1]
		n.free = n.free[:k-1]
		return ws
	}
	return new(workspace)
}

// give returns a call's working state to the free list, letting go of the
// epoch's results the graph points to.
func (n *Scheduler) give(ws *workspace) {
	clear(ws.acg.sims)
	n.mu.Lock()
	n.free = append(n.free, ws)
	n.mu.Unlock()
}
