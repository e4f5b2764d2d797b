package core

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// TestScheduleAllocationBudget bounds what Schedule allocates, end to end,
// on the two epoch shapes the repo benchmark runs (1 600 tx at skew 1.0,
// 800 tx at skew 0.2), once the instance's working state has grown to them.
// The graph, rank division and the sorter then work entirely in arrays an
// earlier call left, the sequence-number bitsets that outgrow their first
// word included, and the safety sweep lists no pair. What is left is what
// the call returns: the schedule, its Seqs map sized to the commits and its
// abort list sized to the aborts — six allocations. Bounds are the measured
// value ×1.25. A working state built per call, an array that reset
// reallocates instead of reusing, or a map or slice per address or per edge
// trips the counts; a Seqs map grown instead of sized trips the bytes.
func TestScheduleAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		skew     float64
		budget   float64
		maxBytes int64
	}{
		{"hot", 1600, 1.0, 8, 44_000},
		{"uniform", 800, 0.2, 8, 25_000},
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
		bytes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched.Schedule(sims)
			}
		}).AllocedBytesPerOp()
		t.Logf("%s: %d aborts; Schedule made %.0f allocations, %d bytes", tc.name, out.AbortedCount(), total, bytes)
		if total > tc.budget {
			t.Errorf("%s: Schedule made %.0f allocations, budget %.0f", tc.name, total, tc.budget)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s: Schedule allocated %d bytes, budget %d", tc.name, bytes, tc.maxBytes)
		}
	}
}
