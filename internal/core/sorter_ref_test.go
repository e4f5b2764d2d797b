package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/graph"
	"github.com/nezha-dag/nezha/internal/types"
)

// The reference implementations below are former production code, kept
// only as oracles: the pair-list sweep and the rank scan are quadratic on
// hot epochs, but short and obviously right. The production versions must
// agree with them choice for choice, not just in the final set.

// violation is one per-address pair of committed transactions whose
// sequence numbers break a strict-serializability invariant.
type violation struct{ a, b types.TxID }

// refCollectViolations is the former collectViolations: every violating
// pair on every address, listed once per occurrence — a pair violating on
// two addresses, or as write-write and as read-write on one, is listed
// twice.
func refCollectViolations(s *sorter) []violation {
	bySeq := func(a, b types.TxID) int {
		if c := cmp.Compare(s.seqOf[a], s.seqOf[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	live := func(ids []types.TxID) []types.TxID {
		var out []types.TxID
		for _, id := range ids {
			if !s.aborted[id] {
				out = append(out, id)
			}
		}
		slices.SortFunc(out, bySeq)
		return out
	}
	var pairs []violation
	for j := range s.acg.Addrs {
		readers, writers := live(s.acg.Addrs[j].Reads), live(s.acg.Addrs[j].Writes)
		for i := 0; i < len(writers); {
			q := s.seqOf[writers[i]]
			end := i + 1
			for end < len(writers) && s.seqOf[writers[end]] == q {
				end++
			}
			run := writers[i:end]
			// Write-write: every pair within an equal-seq run.
			for x, w := range run {
				for _, other := range run[x+1:] {
					pairs = append(pairs, violation{w, other})
				}
			}
			// Read-write: a write at or below a different transaction's read.
			for _, w := range run {
				for _, r := range readers {
					if s.seqOf[r] >= q && r != w {
						pairs = append(pairs, violation{w, r})
					}
				}
			}
			i = end
		}
	}
	return pairs
}

// refCoverAborts is the former greedy cover over an explicit pair list,
// rescanning every count and every remaining pair once per victim. It
// returns the victims in the order chosen; tieBreakMinID — never set
// outside the meta-test — flips the id tie-break.
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
	g := &acg.Deps
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
				zero.Push(int(v))
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

// sweepOrders runs the reference (pair list, then rescanning cover) and the
// production sweep on one sorter state and returns both victim orders and
// the pair count. The production sweep runs second: it aborts its victims.
func sweepOrders(t testing.TB, s *sorter) (got, want []types.TxID, pairs int) {
	t.Helper()
	p := refCollectViolations(s)
	want = refCoverAborts(p, false)
	for _, v := range s.safetySweep() {
		got = append(got, types.TxID(v))
	}
	for id, c := range s.pairs {
		if c != 0 {
			t.Fatalf("pairs[%d] = %d after the cover, want 0: some pair is left uncovered or was counted wrong", id, c)
		}
	}
	return got, want, len(p)
}

// sortedSorter schedules an epoch up to the safety sweep.
func sortedSorter(sims []*types.SimResult, cfg Config) *sorter {
	acg := BuildACG(sims)
	s := newSorter(acg, cfg.Reorder, FaultNone)
	s.run(RankAddresses(acg, cfg.Heuristic))
	return s
}

// seqSorter builds the epoch's ACG and hands every transaction the given
// sequence number instead of sorting; 0 marks it aborted before the sweep.
// Arbitrary numbers reach violation shapes a sorted epoch reaches only by
// luck.
func seqSorter(sims []*types.SimResult, seqs []types.Seq) *sorter {
	s := newSorter(BuildACG(sims), false, FaultNone)
	for _, sim := range sims {
		if q := seqs[sim.Tx.ID]; q == 0 {
			s.abortTx(sim.Tx.ID)
		} else {
			s.seqOf[sim.Tx.ID] = q
		}
	}
	return s
}

// CoverOrders is the bridge for the external tests, which can import
// internal/check's generators: the victim order of the production sweep and
// of the reference on one scheduled epoch, plus the pair count.
func CoverOrders(t testing.TB, sims []*types.SimResult, cfg Config) (got, want []types.TxID, pairs int) {
	return sweepOrders(t, sortedSorter(sims, cfg))
}

// CoverOrdersAt is CoverOrders with the sequence numbers given instead of
// sorted (see seqSorter).
func CoverOrdersAt(t testing.TB, sims []*types.SimResult, seqs []types.Seq) (got, want []types.TxID, pairs int) {
	return sweepOrders(t, seqSorter(sims, seqs))
}

// RefRankAddresses exposes the reference rank division to FuzzRankDivision.
var RefRankAddresses = refRankAddresses

// handTx is one transaction of a hand-built sweep input: the key bytes it
// reads and writes and the sequence number it carries (0: aborted).
type handTx struct {
	reads, writes []byte
	seq           types.Seq
}

// handBuiltSweeps are the violation shapes random epochs reach only by
// luck: duplicate pairs, a pair that is both write-write and read-write,
// transactions that read what they write, readers above several runs, and
// count ties.
var handBuiltSweeps = map[string][]handTx{
	"single pair": {{writes: []byte{1}, seq: 2}, {reads: []byte{1}, seq: 2}},
	"same pair from two addresses": {
		{writes: []byte{1, 2}, seq: 3}, {writes: []byte{1, 2}, seq: 3},
		{reads: []byte{3}, writes: []byte{4}, seq: 5}, {reads: []byte{4}, seq: 5},
	},
	"RW and WW on the same pair": {
		{reads: []byte{1}, writes: []byte{1}, seq: 4}, {writes: []byte{1}, seq: 4},
		{writes: []byte{1}, seq: 2},
	},
	"all counts tied (ring)": {
		{writes: []byte{0, 4}, seq: 1}, {writes: []byte{0, 1}, seq: 1}, {writes: []byte{1, 2}, seq: 1},
		{writes: []byte{2, 3}, seq: 1}, {writes: []byte{3, 4}, seq: 1},
	},
	"star, then tied leaves": {
		{writes: []byte{9}, seq: 1},
		{reads: []byte{9}, writes: []byte{1}, seq: 2}, {reads: []byte{9}, writes: []byte{1}, seq: 2},
		{reads: []byte{9}, writes: []byte{2}, seq: 2}, {reads: []byte{9}, writes: []byte{2}, seq: 2},
	},
	"two disjoint components, tied": {
		{writes: []byte{1}, seq: 1}, {reads: []byte{1}, seq: 1}, {reads: []byte{1}, seq: 2},
		{writes: []byte{2}, seq: 1}, {reads: []byte{2}, seq: 1}, {reads: []byte{2}, seq: 2},
	},
	"clique of four": {
		{writes: []byte{1}, seq: 5}, {writes: []byte{1}, seq: 5}, {writes: []byte{1}, seq: 5}, {writes: []byte{1}, seq: 5},
	},
	"reader above several runs": {
		{writes: []byte{1}, seq: 1}, {writes: []byte{1}, seq: 1}, {writes: []byte{1}, seq: 2},
		{writes: []byte{1}, seq: 3}, {reads: []byte{1}, seq: 9}, {reads: []byte{1}, seq: 2},
	},
	"readers that write what they read": {
		{reads: []byte{1}, writes: []byte{1}, seq: 3}, {reads: []byte{1}, writes: []byte{1}, seq: 3},
		{reads: []byte{1}, writes: []byte{1}, seq: 4}, {reads: []byte{1}, seq: 3},
	},
	"aborted before the sweep": {
		{writes: []byte{1}, seq: 2}, {writes: []byte{1}, seq: 0}, {reads: []byte{1}, seq: 0},
		{reads: []byte{1}, seq: 2},
	},
	"victim's neighbour drops to zero": {
		{writes: []byte{1}, seq: 1}, {reads: []byte{1}, seq: 1}, {reads: []byte{1}, seq: 1}, {reads: []byte{1}, seq: 1},
	},
}

// handSorter builds the sweep input of a hand-built case.
func handSorter(txs []handTx) *sorter {
	keys := func(bs []byte) []types.Key {
		var out []types.Key
		for _, b := range bs {
			out = append(out, key(b))
		}
		return out
	}
	sims := make([]*types.SimResult, len(txs))
	seqs := make([]types.Seq, len(txs))
	for i, tx := range txs {
		sims[i], seqs[i] = simRW(types.TxID(i), keys(tx.reads), keys(tx.writes)), tx.seq
	}
	return seqSorter(sims, seqs)
}

func TestCoverAbortsMatchesReferenceOnHandBuiltPairs(t *testing.T) {
	for name, txs := range handBuiltSweeps {
		got, want, n := sweepOrders(t, handSorter(txs))
		if n == 0 {
			t.Errorf("%s: no violating pair, the case tests nothing", name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d pairs, victim order %v, reference %v", name, n, got, want)
		}
	}
}

// TestCoverAbortsMatchesReferenceOnRandomPairs gives random small epochs
// random sequence numbers — few addresses and few numbers force duplicate
// pairs, long runs and count ties — and runs both sweeps on them.
func TestCoverAbortsMatchesReferenceOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		txs := 2 + rng.Intn(30)
		_, sims := randomWorkload(rng, txs, 1+rng.Intn(8))
		seqs := make([]types.Seq, txs)
		for i := range seqs {
			seqs[i] = types.Seq(rng.Intn(5))
		}
		got, want, n := CoverOrdersAt(t, sims, seqs)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d pairs, victim order %v, reference %v", trial, n, got, want)
		}
	}
}

// minIDSweep is a test-only copy of safetySweep whose cover breaks count
// ties toward the lowest id instead of the highest: each bucket is drained
// in ascending id order.
func minIDSweep(s *sorter) []types.TxID {
	var victims []types.TxID
	top := s.countPairs()
	if top == 0 {
		return victims
	}
	head := make([]int32, top+1)
	next := s.bumpedAt
	for id, c := range s.pairs {
		if c > 0 {
			next[id], head[c] = head[c], int32(id)+1
		}
	}
	var bucket []int32
	for c := top; c > 0; c-- {
		bucket = bucket[:0]
		for e := head[c]; e != 0; e = next[e-1] {
			bucket = append(bucket, e-1)
		}
		slices.Sort(bucket)
		for _, id := range bucket {
			switch now := s.pairs[id]; {
			case now == c:
				victims = append(victims, types.TxID(id))
				s.abortVictim(types.TxID(id))
			case now > 0:
				next[id], head[now] = head[now], id+1
			}
		}
	}
	return victims
}

// TestCoverOracleBites is the meta-test: a sweep that breaks count ties
// toward the lowest id instead of the highest must be told apart from the
// reference by the same comparison, on the hand-built cases and on a real
// epoch alike — otherwise the tests above pin nothing about ties.
func TestCoverOracleBites(t *testing.T) {
	caught := 0
	for _, txs := range handBuiltSweeps {
		want := refCoverAborts(refCollectViolations(handSorter(txs)), false)
		if !slices.Equal(minIDSweep(handSorter(txs)), want) {
			caught++
		}
	}
	if caught < len(handBuiltSweeps)/2 {
		t.Fatalf("the min-id tie-break differs on only %d of %d hand-built cases", caught, len(handBuiltSweeps))
	}
	sims := smallBankSimsN(t, 1, 1600, 1.0, 10_000)
	want := refCoverAborts(refCollectViolations(sortedSorter(sims, DefaultConfig())), false)
	if slices.Equal(minIDSweep(sortedSorter(sims, DefaultConfig())), want) {
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
		got, want, n := CoverOrders(t, smallBankSimsN(t, 1, tc.n, tc.skew, 10_000), DefaultConfig())
		if n == 0 {
			t.Fatalf("n=%d skew=%.1f: no violating pairs, the case tests nothing", tc.n, tc.skew)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d skew=%.1f: %d pairs, victim orders diverge (%d vs %d victims)", tc.n, tc.skew, n, len(got), len(want))
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
