package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// scheduleFingerprint renders a schedule as a deterministic byte string:
// commit groups (sequence number -> ascending tx ids) followed by the
// abort list. Two schedules are equivalent iff their fingerprints are
// byte-identical.
func scheduleFingerprint(s *types.Schedule) string {
	bySeq := map[types.Seq][]types.TxID{}
	for id, seq := range s.Seqs {
		bySeq[seq] = append(bySeq[seq], id)
	}
	seqs := make([]types.Seq, 0, len(bySeq))
	for seq := range bySeq {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := ""
	for _, seq := range seqs {
		ids := bySeq[seq]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out += fmt.Sprintf("seq %d: %v\n", seq, ids)
	}
	out += fmt.Sprintf("aborted: %v\n", s.Aborted)
	return out
}

// TestScheduleGOMAXPROCSInvariance is the guard nezha-vet's detmap and
// detsource analyzers back up dynamically: the machine's core count must
// never leak into a schedule. Each epoch is scheduled under GOMAXPROCS=1
// and GOMAXPROCS=8 and the results must match byte for byte — both the
// commit groups/aborts and the PhaseBreakdown with its wall-clock
// durations zeroed (Graph/Cycle/Sort are timings; everything else in the
// breakdown is part of the deterministic contract).
func TestScheduleGOMAXPROCSInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	run := func(procs int, sims []*types.SimResult) (string, types.PhaseBreakdown) {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		sched, pb, err := MustNewScheduler(DefaultConfig()).Schedule(sims)
		if err != nil {
			t.Fatal(err)
		}
		pb.Graph, pb.Cycle, pb.Sort = 0, 0, 0
		return scheduleFingerprint(sched), pb
	}

	for _, skew := range []float64{0, 0.9} {
		for _, n := range []int{64, 1024} {
			sims := smallBankSims(t, int64(n)*31+int64(skew*10), n, skew)
			fp1, pb1 := run(1, sims)
			fp8, pb8 := run(8, sims)
			if fp1 != fp8 {
				t.Errorf("skew=%.1f n=%d: schedule differs across GOMAXPROCS\n-- procs=1 --\n%s-- procs=8 --\n%s", skew, n, fp1, fp8)
			}
			if !reflect.DeepEqual(pb1, pb8) {
				t.Errorf("skew=%.1f n=%d: phase breakdown differs across GOMAXPROCS: %+v vs %+v", skew, n, pb1, pb8)
			}
		}
	}
}
