package core

import (
	"math/rand"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// rankedPositions inverts a rank sequence into vertex → position.
func rankedPositions(ranks []int) map[int]int {
	pos := make(map[int]int, len(ranks))
	for i, v := range ranks {
		pos[v] = i
	}
	return pos
}

func TestRankAddressesEmptyAndSingle(t *testing.T) {
	if ranks := RankAddresses(BuildACG(nil), RankMaxOutDegree); len(ranks) != 0 {
		t.Fatalf("empty ACG ranked %v", ranks)
	}
	acg := BuildACG([]*types.SimResult{simRW(1, nil, []types.Key{key(1)})})
	ranks := RankAddresses(acg, RankMaxOutDegree)
	if len(ranks) != 1 || ranks[0] != 0 {
		t.Fatalf("single-address ranks = %v", ranks)
	}
}

func TestRankAddressesAcyclicIsTopological(t *testing.T) {
	// T1: W A1 R A2; T2: W A2 R A3 — chain A1 -> A2 -> A3, no cycles:
	// ranks must be a topological order.
	sims := []*types.SimResult{
		simRW(1, []types.Key{key(2)}, []types.Key{key(1)}),
		simRW(2, []types.Key{key(3)}, []types.Key{key(2)}),
	}
	acg := BuildACG(sims)
	for _, h := range []RankHeuristic{RankMaxOutDegree, RankMinSubscript} {
		ranks := RankAddresses(acg, h)
		pos := rankedPositions(ranks)
		for u := 0; u < acg.Deps.N(); u++ {
			for _, v := range acg.Deps.Out(u) {
				if pos[u] > pos[int(v)] {
					t.Fatalf("heuristic %d: edge %d->%d violates rank order %v", h, u, v, ranks)
				}
			}
		}
	}
}

func TestRankHeuristicsDivergeOnCycles(t *testing.T) {
	// The paper example's cycle A1->A2->A3->A1: max-out-degree picks A2
	// first; min-subscript picks A1 first.
	acg := BuildACG(paperExample())
	maxOut := RankAddresses(acg, RankMaxOutDegree)
	minSub := RankAddresses(acg, RankMinSubscript)
	if maxOut[0] != 1 { // A2
		t.Fatalf("max-out-degree first pick = A%d, want A2", maxOut[0]+1)
	}
	if minSub[0] != 0 { // A1
		t.Fatalf("min-subscript first pick = A%d, want A1", minSub[0]+1)
	}
}

func TestRankAddressesCompleteAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		var sims []*types.SimResult
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			sims = append(sims, simRW(types.TxID(i),
				[]types.Key{key(byte(rng.Intn(12)))},
				[]types.Key{key(byte(rng.Intn(12)))}))
		}
		acg := BuildACG(sims)
		r1 := RankAddresses(acg, RankMaxOutDegree)
		r2 := RankAddresses(acg, RankMaxOutDegree)
		if len(r1) != acg.NumAddresses() {
			t.Fatalf("trial %d: ranked %d of %d addresses", trial, len(r1), acg.NumAddresses())
		}
		seen := make(map[int]bool)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("trial %d: rank division not deterministic", trial)
			}
			if seen[r1[i]] {
				t.Fatalf("trial %d: vertex %d ranked twice", trial, r1[i])
			}
			seen[r1[i]] = true
		}
	}
}
