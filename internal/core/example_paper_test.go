package core

import (
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// key returns a Key whose first byte is n, so keys sort in "subscript"
// order A1 < A2 < ... exactly as the paper labels them.
func key(n byte) types.Key {
	var k types.Key
	k[0] = n
	return k
}

// simRW builds a SimResult for a transaction with the given id, read keys,
// and written keys (values are synthesized deterministically).
func simRW(id types.TxID, reads, writes []types.Key) *types.SimResult {
	sim := &types.SimResult{Tx: &types.Transaction{ID: id}}
	for _, k := range reads {
		sim.Reads = append(sim.Reads, types.ReadEntry{Key: k})
	}
	for _, k := range writes {
		sim.Writes = append(sim.Writes, types.WriteEntry{Key: k, Value: []byte{byte(id)}})
	}
	return sim
}

// paperExample builds the six transactions of Table III:
//
//	T1: R A2, W A1     T2: R A3, W A2     T3: R A4, W A2
//	T4: R A4, W A3     T5: R A4, W A4     T6: R A1, W A3
func paperExample() []*types.SimResult {
	a1, a2, a3, a4 := key(1), key(2), key(3), key(4)
	return []*types.SimResult{
		simRW(1, []types.Key{a2}, []types.Key{a1}),
		simRW(2, []types.Key{a3}, []types.Key{a2}),
		simRW(3, []types.Key{a4}, []types.Key{a2}),
		simRW(4, []types.Key{a4}, []types.Key{a3}),
		simRW(5, []types.Key{a4}, []types.Key{a4}),
		simRW(6, []types.Key{a1}, []types.Key{a3}),
	}
}

// TestPaperACGConstruction reproduces Fig. 4: the read/write sets per
// address and the write→read dependency edges, with no edge for T5 (its
// read and write hit the same address).
func TestPaperACGConstruction(t *testing.T) {
	acg := BuildACG(paperExample())
	if acg.NumAddresses() != 4 {
		t.Fatalf("addresses = %d, want 4", acg.NumAddresses())
	}
	// Vertex i corresponds to A(i+1) because keys were crafted in order.
	wantReads := [][]types.TxID{{6}, {1}, {2}, {3, 4, 5}}
	wantWrites := [][]types.TxID{{1}, {2, 3}, {4, 6}, {5}}
	for i := range acg.Addrs {
		if got := acg.Addrs[i].Reads; !equalIDs(got, wantReads[i]) {
			t.Errorf("A%d reads = %v, want %v", i+1, got, wantReads[i])
		}
		if got := acg.Addrs[i].Writes; !equalIDs(got, wantWrites[i]) {
			t.Errorf("A%d writes = %v, want %v", i+1, got, wantWrites[i])
		}
	}
	// Fig. 6 edges: A1→A2 (T1), A2→A3 (T2), A2→A4 (T3), A3→A4 (T4),
	// A3→A1 (T6); five edges total, none for T5.
	wantEdges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 0}}
	if acg.Deps.EdgeCount() != len(wantEdges) {
		t.Fatalf("edge count = %d, want %d", acg.Deps.EdgeCount(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !slices.Contains(acg.Deps.Out(e[0]), int32(e[1])) {
			t.Errorf("missing edge A%d→A%d", e[0]+1, e[1]+1)
		}
	}
	if acg.NumUnits() != 12 {
		t.Fatalf("units = %d, want 12", acg.NumUnits())
	}
}

// TestPaperRankDivision reproduces Fig. 6's blue labels: the dependency
// cycle A1→A2→A3→A1 forces the heuristic, which picks A2 (max out-degree 2)
// first, then A3, A1, A4 follow.
func TestPaperRankDivision(t *testing.T) {
	acg := BuildACG(paperExample())
	ranks := RankAddresses(acg, RankMaxOutDegree)
	want := []int{1, 2, 0, 3} // A2, A3, A1, A4
	if len(ranks) != len(want) {
		t.Fatalf("ranks = %v, want %v", ranks, want)
	}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v (A2, A3, A1, A4)", ranks, want)
		}
	}
}

// TestPaperHierarchicalSorting reproduces Fig. 7 end to end: T1 aborts as
// unserializable, and the committed sequence numbers are
// T2=s+1, T3=T4=s+2, T5=T6=s+3 (s = 1 here).
func TestPaperHierarchicalSorting(t *testing.T) {
	sims := paperExample()
	sched, pb, err := MustNewScheduler(DefaultConfig()).Schedule(sims)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if pb.Total() <= 0 {
		t.Fatal("phase breakdown not recorded")
	}

	if sched.AbortedCount() != 1 || sched.Aborted[0].ID != 1 {
		t.Fatalf("aborts = %+v, want [T1]", sched.Aborted)
	}
	if sched.Aborted[0].Reason != types.AbortUnserializable {
		t.Fatalf("abort reason = %v", sched.Aborted[0].Reason)
	}

	s := types.Seq(1)
	want := map[types.TxID]types.Seq{2: s + 1, 3: s + 2, 4: s + 2, 5: s + 3, 6: s + 3}
	for id, wantSeq := range want {
		if got := sched.Seqs[id]; got != wantSeq {
			t.Errorf("T%d seq = %d, want %d", id, got, wantSeq)
		}
	}

	// Fig. 7(d): commit groups {T2}, {T3,T4}, {T5,T6}.
	groups := sched.Groups()
	wantGroups := [][]types.TxID{{2}, {3, 4}, {5, 6}}
	if len(groups) != len(wantGroups) {
		t.Fatalf("groups = %v, want %v", groups, wantGroups)
	}
	for i := range wantGroups {
		if !equalIDs(groups[i], wantGroups[i]) {
			t.Fatalf("groups = %v, want %v", groups, wantGroups)
		}
	}

	if err := VerifySchedule(nil, sims, sched); err != nil {
		t.Fatalf("paper example schedule not serializable: %v", err)
	}
}

// TestPaperReorderingFig8 reproduces §IV-D: Tu writes A_j and A_{j+1},
// Tv writes A_j and reads A_{j+1}. Without reordering Tu aborts; with
// reordering Tu is bumped to s+2 and both commit.
func TestPaperReorderingFig8(t *testing.T) {
	aj, aj1 := key(1), key(2)
	sims := []*types.SimResult{
		simRW(1, nil, []types.Key{aj, aj1}),         // Tu
		simRW(2, []types.Key{aj1}, []types.Key{aj}), // Tv
	}

	noReorder := MustNewScheduler(Config{Reorder: false, Heuristic: RankMaxOutDegree})
	sched, _, err := noReorder.Schedule(sims)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if sched.AbortedCount() != 1 || sched.Aborted[0].ID != 1 {
		t.Fatalf("without reordering: aborts = %+v, want [Tu]", sched.Aborted)
	}

	withReorder := MustNewScheduler(DefaultConfig())
	sched, _, err = withReorder.Schedule(sims)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if sched.AbortedCount() != 0 {
		t.Fatalf("with reordering: aborts = %+v, want none", sched.Aborted)
	}
	if sched.Seqs[2] != 2 || sched.Seqs[1] != 3 {
		t.Fatalf("seqs = %v, want Tv=2 Tu=3", sched.Seqs)
	}
	if err := VerifySchedule(nil, sims, sched); err != nil {
		t.Fatalf("reordered schedule not serializable: %v", err)
	}
}

func equalIDs(got, want []types.TxID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
