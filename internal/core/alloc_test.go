package core

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// TestScheduleAllocationBudget guards the allocation shape of Schedule on
// the two epoch shapes the repo benchmark runs (1 600 tx at skew 1.0, 800 tx
// at skew 0.2). Everything between the graph and the schedule works out of
// arrays allocated once per Schedule, so the sorter's count is a small
// constant plus the sequence-number bitsets that outgrow their first word on
// a hot epoch — never one per address. A map or slice per address brought
// back into sortAddress or the sweep adds 1 200+ allocations here and trips
// both bounds.
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
		sorter float64 // measured 736 and 37 (go1.24), plus headroom
	}{
		{"hot", 1600, 1.0, 780},
		{"uniform", 800, 0.2, 45},
	} {
		sims := smallBankSimsN(t, 1, tc.n, tc.skew, 10_000)
		cfg := DefaultConfig()
		sched := MustNewScheduler(cfg)

		var acg *ACG
		var ranks []int
		graph := testing.AllocsPerRun(5, func() {
			acg = BuildACG(sims)
			ranks = RankAddresses(acg, cfg.Heuristic)
		})
		sorter := testing.AllocsPerRun(5, func() {
			s := newSorter(acg, cfg.Reorder, FaultNone)
			s.run(ranks)
			s.safetySweep(ranks)
			s.finish()
		})
		var out *types.Schedule
		total := testing.AllocsPerRun(5, func() {
			var err error
			if out, _, err = sched.Schedule(sims); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d addresses, %d aborts; allocations: graph %.0f, sorter %.0f, Schedule %.0f",
			tc.name, len(acg.Addrs), out.AbortedCount(), graph, sorter, total)

		if sorter > tc.sorter {
			t.Errorf("%s: sorter made %.0f allocations, budget %.0f", tc.name, sorter, tc.sorter)
		}
		if total > graph+tc.sorter+assembly {
			t.Errorf("%s: Schedule made %.0f allocations, budget %.0f (graph %.0f + sorter %.0f + assembly %d)",
				tc.name, total, graph+tc.sorter+assembly, graph, tc.sorter, assembly)
		}
	}
}
