package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// TestScheduleReuseMatchesFresh: a Scheduler's kept working state never
// leaks from one call into the next. One instance schedules a run of epochs
// whose shapes shrink, grow and swing between hot and uniform — so every
// array is reused both larger and smaller than it was, with stale stamps,
// bitsets and counts behind the live part — from two goroutines at once,
// and each schedule must equal a fresh instance's, rescues included.
func TestScheduleReuseMatchesFresh(t *testing.T) {
	shapes := []struct {
		n        int
		skew     float64
		accounts uint64
	}{
		{1600, 1.0, 10_000}, {64, 0.9, 2_000}, {800, 0.2, 10_000}, {1024, 0.9, 2_000},
		{200, 1.0, 500}, {1600, 1.0, 2_000}, {3, 0, 10}, {800, 0.6, 10_000},
	}
	var epochs [][]*types.SimResult
	for i, sh := range shapes {
		epochs = append(epochs, smallBankSimsN(t, int64(i+1), sh.n, sh.skew, sh.accounts))
	}
	want := make([]string, len(epochs))
	for i, sims := range epochs {
		sched, pb, err := MustNewScheduler(DefaultConfig()).Schedule(sims)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("%s rescued %d", scheduleFingerprint(sched), pb.Rescued)
	}
	reused := MustNewScheduler(DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range epochs {
					i := (k + g*3) % len(epochs) // the two goroutines stay out of step
					sched, pb, err := reused.Schedule(epochs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got := fmt.Sprintf("%s rescued %d", scheduleFingerprint(sched), pb.Rescued); got != want[i] {
						t.Errorf("round %d, epoch %d: a reused scheduler's schedule differs from a fresh one's", round, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
