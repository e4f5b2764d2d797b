package core

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// TestScheduleAllocationBudget bounds what Schedule allocates, end to end,
// on the two epoch shapes the repo benchmark runs (1 600 tx at skew 1.0,
// 800 tx at skew 0.2). The graph is a handful of count-then-fill arrays (its
// key index is kept across calls); rank division and the sorter work out of
// arrays allocated once per call; the safety sweep lists no pair. What is
// left grows with the epoch, not with its addresses: the schedule's Seqs map
// and abort list, and on a hot epoch the sequence-number bitsets that
// outgrow their first word. A map or slice per address or per edge brought back into
// BuildACG, rank division, sortAddress or the sweep adds 1 200+
// allocations here and trips both bounds.
func TestScheduleAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		skew   float64
		budget float64
	}{
		{"hot", 1600, 1.0, 900},
		{"uniform", 800, 0.2, 150},
	} {
		sims := smallBankSimsN(t, 1, tc.n, tc.skew, 10_000)
		sched := MustNewScheduler(DefaultConfig())
		var out *types.Schedule
		total := testing.AllocsPerRun(5, func() {
			var err error
			if out, _, err = sched.Schedule(sims); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d aborts; Schedule made %.0f allocations", tc.name, out.AbortedCount(), total)
		if total > tc.budget {
			t.Errorf("%s: Schedule made %.0f allocations, budget %.0f", tc.name, total, tc.budget)
		}
	}
}
