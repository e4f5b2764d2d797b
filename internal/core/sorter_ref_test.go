package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/graph"
	"github.com/nezha-dag/nezha/internal/types"
)

// The reference implementations below are the pre-heap production code,
// kept only as oracles: the greedy cover and the rank scan are quadratic on
// hot epochs, but short and obviously right. The production versions must
// agree with them choice for choice, not just in the final set.

// refCoverAborts is the former coverAborts body, verbatim except that a
// victim is appended to the returned order instead of aborted, and that
// tieBreakMinID — never set outside the meta-test — flips the id tie-break.
func refCoverAborts(pairs []violation, tieBreakMinID bool) []types.TxID {
	var order []types.TxID
	if len(pairs) == 0 {
		return order
	}
	pairs = slices.Clone(pairs)
	count := make(map[types.TxID]int, len(pairs))
	for _, p := range pairs {
		count[p.a]++
		count[p.b]++
	}
	for len(pairs) > 0 {
		victim := types.TxID(0)
		best := 0
		for id, c := range count {
			if c > best || (c == best && c > 0 && (id > victim) != tieBreakMinID) {
				victim, best = id, c
			}
		}
		order = append(order, victim)
		kept := pairs[:0]
		for _, p := range pairs {
			if p.a == victim || p.b == victim {
				count[p.a]--
				count[p.b]--
				continue
			}
			kept = append(kept, p)
		}
		pairs = kept
	}
	return order
}

// refRankAddresses is the former RankAddresses, verbatim: the cycle path
// scans every vertex twice per blocked round.
func refRankAddresses(acg *ACG, heuristic RankHeuristic) []int {
	g := acg.Deps
	n := g.N()
	if n == 0 {
		return nil
	}

	inDeg := make([]int, n)
	removed := make([]bool, n)
	for v := 0; v < n; v++ {
		inDeg[v] = g.InDegree(v)
	}
	outDeg := make([]int, n)
	for v := 0; v < n; v++ {
		outDeg[v] = g.OutDegree(v)
	}
	rev := make([][]int, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			rev[v] = append(rev[v], u)
		}
	}

	var zero graph.IntMinHeap
	for v := 0; v < n; v++ {
		if inDeg[v] == 0 {
			zero.Push(v)
		}
	}

	seq := make([]int, 0, n)
	remove := func(u int) {
		removed[u] = true
		seq = append(seq, u)
		for _, v := range g.Out(u) {
			if removed[v] {
				continue
			}
			inDeg[v]--
			if inDeg[v] == 0 {
				zero.Push(v)
			}
		}
		for _, p := range rev[u] {
			if !removed[p] {
				outDeg[p]--
			}
		}
	}

	for len(seq) < n {
		if zero.Len() > 0 {
			u := zero.Pop()
			if removed[u] {
				continue
			}
			remove(u)
			continue
		}
		min := -1
		for v := 0; v < n; v++ {
			if !removed[v] && (min == -1 || inDeg[v] < inDeg[min]) {
				min = v
			}
		}
		selected := min
		if heuristic == RankMaxOutDegree {
			for v := 0; v < n; v++ {
				if removed[v] || inDeg[v] != inDeg[min] {
					continue
				}
				if outDeg[v] > outDeg[selected] {
					selected = v
				}
			}
		}
		remove(selected)
	}
	return seq
}

// coverOrder runs the production cover over a pair list and returns the
// victims in the order chosen. txs bounds the ids in pairs.
func coverOrder(t testing.TB, pairs []violation, txs int) []types.TxID {
	t.Helper()
	s := &sorter{incident: make([]int32, txs), adjOff: make([]int32, txs)}
	var sw sweeper
	var order []types.TxID
	for _, v := range s.coverAborts(pairs, &sw) {
		order = append(order, types.TxID(v))
	}
	for id, c := range s.incident {
		if c != 0 {
			t.Fatalf("incident[%d] = %d after the cover, want 0: a second cover would start from a wrong count", id, c)
		}
	}
	// A second cover on the same sweeper must not see the first one's
	// leftovers.
	again := s.coverAborts(pairs, &sw)
	for i, v := range again {
		if len(again) != len(order) || types.TxID(v) != order[i] {
			t.Fatalf("cover on reused buffers diverges: %v then %v", order, again)
		}
	}
	return order
}

// sweepPairs schedules an epoch up to the safety sweep and returns the
// violating pairs the sweep would cover.
func sweepPairs(sims []*types.SimResult, cfg Config) []violation {
	acg := BuildACG(sims)
	ranks := RankAddresses(acg, cfg.Heuristic)
	s := newSorter(acg, cfg.Reorder, FaultNone)
	s.run(ranks)
	var sw sweeper
	return slices.Clone(s.collectViolations(ranks, &sw))
}

// CoverOrders is the bridge for the external tests, which can import
// internal/check's generators: the victim order of the production cover and
// of the reference on one epoch's violating pairs, plus the pair count.
func CoverOrders(t testing.TB, sims []*types.SimResult, cfg Config) (got, want []types.TxID, pairs int) {
	p := sweepPairs(sims, cfg)
	return coverOrder(t, p, denseSimLen(sims)), refCoverAborts(p, false), len(p)
}

// RefRankAddresses exposes the reference rank division to FuzzRankDivision.
var RefRankAddresses = refRankAddresses

// handBuiltPairLists are the shapes collectViolations can emit that random
// epochs reach only by luck: duplicate pairs and count ties.
var handBuiltPairLists = map[string][]violation{
	"single pair":                      {{3, 7}},
	"same pair from two addresses":     {{1, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
	"RW and WW on the same pair":       {{5, 9}, {9, 5}, {5, 6}, {6, 7}, {7, 9}},
	"all counts tied (ring)":           {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}},
	"tie after the first victim":       {{0, 9}, {1, 9}, {2, 9}, {0, 1}, {2, 3}, {4, 5}, {6, 7}},
	"star, then tied leaves":           {{8, 0}, {8, 1}, {8, 2}, {8, 3}, {0, 1}, {2, 3}},
	"two disjoint components, tied":    {{0, 1}, {0, 2}, {5, 6}, {5, 7}},
	"duplicates decide the maximum":    {{0, 1}, {0, 1}, {0, 1}, {2, 3}, {2, 4}},
	"clique of four":                   {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
	"victim's neighbour drops to zero": {{0, 1}, {0, 2}, {0, 3}},
}

func TestCoverAbortsMatchesReferenceOnHandBuiltPairs(t *testing.T) {
	for name, pairs := range handBuiltPairLists {
		got, want := coverOrder(t, pairs, 10), refCoverAborts(pairs, false)
		if !slices.Equal(got, want) {
			t.Errorf("%s: victim order %v, reference %v", name, got, want)
		}
	}
}

// TestCoverAbortsMatchesReferenceOnRandomPairs feeds random multigraphs —
// small id spaces force duplicates and ties — through both covers.
func TestCoverAbortsMatchesReferenceOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		txs := 2 + rng.Intn(12)
		pairs := make([]violation, 1+rng.Intn(40))
		for i := range pairs {
			a := rng.Intn(txs)
			b := (a + 1 + rng.Intn(txs-1)) % txs
			pairs[i] = violation{types.TxID(a), types.TxID(b)}
		}
		got, want := coverOrder(t, pairs, txs), refCoverAborts(pairs, false)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, pairs %v: victim order %v, reference %v", trial, pairs, got, want)
		}
	}
}

// TestCoverOracleBites is the meta-test: a cover that breaks count ties
// toward the lowest id instead of the highest must be told apart from the
// production cover by the same comparison, on the hand-built lists and on
// real epochs alike — otherwise the tests above pin nothing about ties.
func TestCoverOracleBites(t *testing.T) {
	caught := 0
	for _, pairs := range handBuiltPairLists {
		if !slices.Equal(coverOrder(t, pairs, 10), refCoverAborts(pairs, true)) {
			caught++
		}
	}
	if caught < len(handBuiltPairLists)/2 {
		t.Fatalf("the min-id tie-break differs on only %d of %d hand-built lists", caught, len(handBuiltPairLists))
	}
	pairs := sweepPairs(smallBankSimsN(t, 1, 1600, 1.0, 10_000), DefaultConfig())
	if slices.Equal(coverOrder(t, pairs, 1600), refCoverAborts(pairs, true)) {
		t.Fatal("the min-id tie-break goes unnoticed on the 1600-tx hot epoch")
	}
}

// TestCoverAbortsMatchesReferenceOnSmallBank covers the benchmark's own
// shapes, including the 1 600-tx skew-1.0 epoch with ~40 000 pairs.
func TestCoverAbortsMatchesReferenceOnSmallBank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		skew float64
	}{{800, 0.2}, {800, 0.6}, {2400, 0.8}, {1600, 1.0}} {
		pairs := sweepPairs(smallBankSimsN(t, 1, tc.n, tc.skew, 10_000), DefaultConfig())
		if len(pairs) == 0 {
			t.Fatalf("n=%d skew=%.1f: no violating pairs, the case tests nothing", tc.n, tc.skew)
		}
		got, want := coverOrder(t, pairs, tc.n), refCoverAborts(pairs, false)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d skew=%.1f: %d pairs, victim orders diverge (%d vs %d victims)", tc.n, tc.skew, len(pairs), len(got), len(want))
		}
	}
}

// TestRankAddressesMatchesReference compares the heap-driven cycle path
// with the rescanning reference where cycles are dense: few addresses, many
// transactions.
func TestRankAddressesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		_, sims := randomWorkload(rng, 20+rng.Intn(300), 3+rng.Intn(60))
		acg := BuildACG(sims)
		for _, h := range []RankHeuristic{RankMaxOutDegree, RankMinSubscript} {
			if got, want := RankAddresses(acg, h), refRankAddresses(acg, h); !slices.Equal(got, want) {
				t.Fatalf("trial %d heuristic %d: ranks %v, reference %v", trial, h, got, want)
			}
		}
	}
}
