package types

import "time"

// PhaseBreakdown records how long each concurrency-control sub-phase took;
// it backs the paper's Fig. 10 (sub-phase latency comparison).
//
// The phases line up across schemes as the paper draws them:
//
//	           Nezha                      CG baseline
//	Graph:     ACG construction           pairwise conflict graph build
//	Cycle:     sorting-rank division      cycle detection + removal
//	Sort:      per-address tx sorting     topological sorting
type PhaseBreakdown struct {
	Graph time.Duration
	Cycle time.Duration
	Sort  time.Duration

	// Rescued counts transactions the reordering enhancement (§IV-D)
	// re-sequenced above their conflicts instead of aborting — each one
	// is an abort the enhanced design avoided (the Fig. 11 gap between
	// Nezha and Nezha-without-reordering).
	Rescued int
}

// Total returns the sum of all sub-phases.
func (p PhaseBreakdown) Total() time.Duration { return p.Graph + p.Cycle + p.Sort }

// Add accumulates another breakdown into p: every field sums.
func (p *PhaseBreakdown) Add(o PhaseBreakdown) {
	p.Graph += o.Graph
	p.Cycle += o.Cycle
	p.Sort += o.Sort
	p.Rescued += o.Rescued
}

// Scheduler is a concurrency-control scheme: it turns the speculative
// execution results of one epoch into a commit schedule. Implementations
// must be deterministic — every node runs the scheduler independently on the
// same input and the chain is only consistent if they all derive the same
// schedule.
//
// A node calls Schedule from its pipeline goroutine or from the background
// goroutine of a look-ahead run, one call at a time per node; nodes that
// share one Scheduler value (in-process clusters do) call it concurrently.
// Implementations therefore never share working state between two calls in
// flight: cg, occ and occda build theirs per call; core keeps a free list of
// working states on the instance, so a call reuses what an earlier one grew
// and concurrent calls each get their own.
type Scheduler interface {
	// Name identifies the scheme in benchmark output ("nezha", "cg", ...).
	Name() string
	// Schedule derives the commit order. sims must be sorted by ascending
	// transaction id; results with Err set are skipped by callers before
	// invoking Schedule.
	Schedule(sims []*SimResult) (*Schedule, PhaseBreakdown, error)
}
