// Package cg implements the strawman concurrency control of §III-D — the
// conventional conflict-graph (CG) scheme the paper compares Nezha against,
// in the style of Fabric++ [5] and FabricSharp [6]:
//
//  1. Graph construction: one vertex per transaction, one edge per
//     transaction dependency (Definition 1): reader → writer for every
//     read-write conflict, lower id → higher id for every write-write
//     conflict.
//  2. Cycle detection and removal: Tarjan's algorithm localizes the
//     nontrivial strongly connected components, Johnson's algorithm
//     enumerates their elementary circuits, and a greedy victim selection
//     aborts the transaction sitting on the most cycles until none remain.
//  3. Topological sorting: Kahn's algorithm over the surviving vertices
//     yields the serial commit order (one transaction per sequence number —
//     the CG scheme has no commit concurrency, which is one of the
//     inefficiencies the paper charges against it).
//
// The cycle-enumeration step explodes combinatorially under high contention;
// the paper reports the CG baseline dying of memory exhaustion at skew 0.8
// with block concurrency above 4, and exceeding 10 s at skew 0.6 with
// concurrency 12. The reproduction bounds the same blow-up two ways:
// MaxCycles caps how many circuits one round may *store* (beyond it the
// remover falls back to a streaming mode that only counts memberships over a
// sample and aborts one victim per round — bounded memory, unbounded time),
// and TimeBudget caps wall-clock; exceeding it makes Schedule return
// ErrCycleExplosion, which the harness reports the way the paper reports its
// OOM/timeout failures.
package cg

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/nezha-dag/nezha/internal/graph"
	"github.com/nezha-dag/nezha/internal/types"
)

// ErrCycleExplosion is returned when cycle removal exhausts its time
// budget, emulating the paper's CG baseline dying of OOM / multi-second
// stalls under high contention.
var ErrCycleExplosion = errors.New("cg: cycle removal exceeded budget (paper's CG baseline dies of OOM here)")

// Config tunes the CG baseline.
type Config struct {
	// MaxCycles bounds how many elementary circuits one removal round may
	// hold in memory for the greedy set cover; past it the remover
	// switches to the streaming fallback. 0 means unlimited.
	MaxCycles int
	// SampleCycles is the streaming fallback's per-round sample size used
	// to pick a victim; 0 defaults to 100k.
	SampleCycles int
	// TimeBudget caps the whole scheduling call; 0 means unlimited.
	TimeBudget time.Duration
}

// DefaultConfig stores up to 200k circuits for exact greedy cover, samples
// 100k in streaming mode, and gives up after 30 s — the regime where the
// paper's baseline died of memory exhaustion.
func DefaultConfig() Config {
	return Config{MaxCycles: 200_000, SampleCycles: 100_000, TimeBudget: 30 * time.Second}
}

// Scheduler is the CG concurrency-control scheme. It is stateless across
// epochs and safe for concurrent use.
type Scheduler struct {
	cfg Config
}

var _ types.Scheduler = (*Scheduler)(nil)

// NewScheduler returns a CG scheduler.
func NewScheduler(cfg Config) *Scheduler { return &Scheduler{cfg: cfg} }

// Name implements types.Scheduler.
func (c *Scheduler) Name() string { return "cg" }

// Schedule implements types.Scheduler.
func (c *Scheduler) Schedule(sims []*types.SimResult) (*types.Schedule, types.PhaseBreakdown, error) {
	var pb types.PhaseBreakdown

	// Step 1: graph construction.
	start := time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	g, ids := buildConflictGraph(sims)
	pb.Graph = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule

	// Step 2: cycle detection and removal.
	start = time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	var deadline time.Time
	if c.cfg.TimeBudget > 0 {
		deadline = start.Add(c.cfg.TimeBudget)
	}
	abortedVerts, err := removeCycles(g, c.cfg, deadline)
	pb.Cycle = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	if err != nil {
		return nil, pb, err
	}

	// Step 3: topological sorting of the survivors.
	start = time.Now() //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule
	sched := types.NewSchedule()
	order, ok := topoWithout(g, abortedVerts)
	if !ok {
		// removeCycles guarantees acyclicity; reaching here is a bug.
		return nil, pb, fmt.Errorf("cg: graph still cyclic after cycle removal")
	}
	seq := types.Seq(1)
	for _, v := range order {
		sched.Commit(ids[v], seq)
		seq++
	}
	//nezha:nondeterminism-ok NormalizeAborts re-sequences the abort set deterministically below
	for v := range abortedVerts {
		sched.Abort(ids[v], types.AbortCycle)
	}
	sched.NormalizeAborts()
	pb.Sort = time.Since(start) //nezha:nondeterminism-ok wall-clock only feeds the local PhaseBreakdown timings, never the schedule

	return sched, pb, nil
}

// buildConflictGraph constructs the transaction conflict graph
// (Definition 2). Construction is indexed by key — the same optimization the
// paper grants the baseline ("the adopted graph construction algorithm
// reduces the squared time complexity", §VI-B) — but the edge set itself is
// inherently quadratic per hot key: every reader × every writer.
func buildConflictGraph(sims []*types.SimResult) (*graph.Directed, []types.TxID) {
	n := len(sims)
	g := graph.NewDirected(n)
	ids := make([]types.TxID, n)

	type keyAccess struct {
		readers []int
		writers []int
	}
	byKey := make(map[types.Key]*keyAccess)
	access := func(k types.Key) *keyAccess {
		a := byKey[k]
		if a == nil {
			a = &keyAccess{}
			byKey[k] = a
		}
		return a
	}
	for v, sim := range sims {
		ids[v] = sim.Tx.ID
		for _, r := range sim.Reads {
			a := access(r.Key)
			a.readers = append(a.readers, v)
		}
		for _, w := range sim.Writes {
			a := access(w.Key)
			a.writers = append(a.writers, v)
		}
	}

	// Iterate keys in sorted order: the edge set is order-insensitive, but
	// adjacency-list ORDER is not — it steers cycle enumeration and the
	// sampling budget, so map order here would make the baseline's abort
	// set differ across replicas (found by nezha-vet's dettaint, whose
	// zero-hop case flags unsorted map ranges in critical packages).
	keys := make([]types.Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
	for _, k := range keys {
		a := byKey[k]
		// Read-write: every reader must precede every writer (all reads
		// observe the epoch snapshot).
		for _, r := range a.readers {
			for _, w := range a.writers {
				if r != w {
					g.AddEdge(r, w)
				}
			}
		}
		// Write-write: deterministic order by vertex position (ascending
		// transaction id).
		for i := 0; i < len(a.writers); i++ {
			for j := i + 1; j < len(a.writers); j++ {
				if a.writers[i] != a.writers[j] {
					g.AddEdge(a.writers[i], a.writers[j])
				}
			}
		}
	}
	return g, ids
}

// removeCycles aborts transactions until the graph restricted to survivors
// is acyclic, returning the aborted vertex set. Victims are selected by
// cycle membership (Fabric++'s strategy). Two regimes:
//
//   - Exact: when one round's elementary circuits fit under cfg.MaxCycles,
//     they are stored and removed by greedy set cover.
//   - Streaming: past the cap, a sample of cfg.SampleCycles circuits is
//     counted (not stored) and the single most-covered vertex is aborted;
//     the round then repeats. Memory stays bounded; time does not — which
//     is exactly the baseline's failure mode, surfaced via the deadline.
//
// Ties break toward the higher vertex id (abort the younger transaction).
func removeCycles(g *graph.Directed, cfg Config, deadline time.Time) (map[int]bool, error) {
	sample := cfg.SampleCycles
	if sample <= 0 {
		sample = 100_000
	}
	aborted := make(map[int]bool)
	for {
		//nezha:nondeterminism-ok the paper grants the CG baseline a wall-clock budget; overruns surface as ErrCycleExplosion, not as a schedule
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: over %v", ErrCycleExplosion, cfg.TimeBudget)
		}
		sub := subgraphWithout(g, aborted)
		comps := sub.NontrivialSCCs()
		if len(comps) == 0 {
			return aborted, nil
		}

		// Exact regime: try to hold every circuit.
		var cycles [][]int
		err := sub.ElementaryCycles(cfg.MaxCycles, func(c []int) {
			cp := make([]int, len(c))
			copy(cp, c)
			cycles = append(cycles, cp)
		})
		if err == nil {
			greedyCover(cycles, aborted)
			continue
		}
		if !errors.Is(err, graph.ErrTooManyCycles) {
			return nil, fmt.Errorf("cg: enumerate cycles: %w", err)
		}

		// Streaming regime: count memberships over a bounded sample and
		// abort the most-covered vertex.
		cycles = nil
		count := make(map[int]int)
		err = sub.ElementaryCycles(sample, func(c []int) {
			for _, v := range c {
				count[v]++
			}
		})
		if err != nil && !errors.Is(err, graph.ErrTooManyCycles) {
			return nil, fmt.Errorf("cg: sample cycles: %w", err)
		}
		victim, best := -1, 0
		//nezha:nondeterminism-ok max with a total (count, id) tie-break is iteration-order-insensitive
		for v, n := range count {
			if n > best || (n == best && v > victim) {
				victim, best = v, n
			}
		}
		if victim < 0 {
			return nil, fmt.Errorf("cg: streaming round found no cycles despite nontrivial SCCs")
		}
		aborted[victim] = true
	}
}

// greedyCover aborts vertices covering the stored cycle set, most-covered
// first, until every cycle is covered.
func greedyCover(cycles [][]int, aborted map[int]bool) {
	for len(cycles) > 0 {
		count := make(map[int]int)
		for _, cyc := range cycles {
			for _, v := range cyc {
				count[v]++
			}
		}
		victim, best := -1, 0
		//nezha:nondeterminism-ok max with a total (count, id) tie-break is iteration-order-insensitive
		for v, c := range count {
			if c > best || (c == best && v > victim) {
				victim, best = v, c
			}
		}
		aborted[victim] = true
		remaining := cycles[:0]
		for _, cyc := range cycles {
			covered := false
			for _, v := range cyc {
				if v == victim {
					covered = true
					break
				}
			}
			if !covered {
				remaining = append(remaining, cyc)
			}
		}
		cycles = remaining
	}
}

// subgraphWithout returns a copy of g with the given vertices isolated
// (their edges removed). Vertex ids are preserved.
func subgraphWithout(g *graph.Directed, skip map[int]bool) *graph.Directed {
	if len(skip) == 0 {
		return g
	}
	sub := graph.NewDirected(g.N())
	for u := 0; u < g.N(); u++ {
		if skip[u] {
			continue
		}
		for _, v := range g.Out(u) {
			if !skip[v] {
				sub.AddEdge(u, v)
			}
		}
	}
	return sub
}

// topoWithout topologically sorts g restricted to vertices outside skip.
func topoWithout(g *graph.Directed, skip map[int]bool) ([]int, bool) {
	sub := subgraphWithout(g, skip)
	order, ok := sub.TopoSort()
	if !ok {
		return nil, false
	}
	out := order[:0]
	for _, v := range order {
		if !skip[v] {
			out = append(out, v)
		}
	}
	return out, true
}
