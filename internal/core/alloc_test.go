package core

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// TestScheduleAllocationBudget guards the allocation shape of Schedule on
// the two epoch shapes the repo benchmark runs (1 600 tx at skew 1.0, 800 tx
// at skew 0.2), sequentially and fanned out. Everything between the graph
// and the schedule works out of arrays allocated once per Schedule, so the
// sorter's count is a small constant plus the sequence-number bitsets that
// outgrow their first word on a hot epoch — never one per address or per
// cluster. A map or slice per address brought back into sortAddress, the
// sweep or clustering adds 1 200+ allocations here and trips both bounds.
//
// The graph's own allocations are dominated by internal/graph's per-vertex
// edge sets, whose count moves with the Go release's map implementation;
// they are measured, not bounded, and Schedule is held to that measurement
// plus the sorter's budget.
func TestScheduleAllocationBudget(t *testing.T) {
	// Schedule assembly: the Seqs map growing to one entry per commit, the
	// abort list, two sorts.
	const assembly = 100
	for _, tc := range []struct {
		name   string
		n      int
		skew   float64
		sorter float64 // at one worker; each further worker owns a few buffers
	}{
		{"hot", 1600, 1.0, 900},
		{"uniform", 800, 0.2, 60},
	} {
		sims := smallBankSimsN(t, 1, tc.n, tc.skew, 10_000)
		// AllocsPerRun pins GOMAXPROCS to 1, so the default (0) resolves
		// to the sequential path under it; 4 forces the sharded builder
		// and the cluster-parallel sorter.
		for _, par := range []int{1, 0, 4} {
			cfg := DefaultConfig()
			cfg.Parallelism = par
			sched := MustNewScheduler(cfg)
			workers := max(par, 1)

			var acg *ACG
			var ranks []int
			var clusters [][]int
			graph := testing.AllocsPerRun(5, func() {
				acg = BuildACGSharded(sims, workers)
				ranks = RankAddresses(acg, cfg.Heuristic)
				if workers > 1 {
					clusters = conflictClusters(acg, ranks)
				}
			})
			sorter := testing.AllocsPerRun(5, func() {
				s := newSorter(acg, cfg.Reorder, FaultNone)
				if workers > 1 {
					s.runParallel(clusters, workers)
					s.safetySweepParallel(clusters, workers)
				} else {
					s.run(ranks)
					s.safetySweep(ranks)
				}
				s.finish()
			})
			var out *types.Schedule
			total := testing.AllocsPerRun(5, func() {
				var err error
				if out, _, err = sched.Schedule(sims); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s par=%d: %d addresses, %d clusters, %d aborts; allocations: graph %.0f, sorter %.0f, Schedule %.0f",
				tc.name, par, len(acg.Addrs), len(clusters), out.AbortedCount(), graph, sorter, total)

			budget := tc.sorter + 8*float64(workers)
			if sorter > budget {
				t.Errorf("%s par=%d: sorter made %.0f allocations, budget %.0f", tc.name, par, sorter, budget)
			}
			if total > graph+budget+assembly {
				t.Errorf("%s par=%d: Schedule made %.0f allocations, budget %.0f (graph %.0f + sorter %.0f + assembly %d)",
					tc.name, par, total, graph+budget+assembly, graph, budget, assembly)
			}
		}
	}
}
