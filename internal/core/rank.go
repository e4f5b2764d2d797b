package core

import "github.com/nezha-dag/nezha/internal/slab"

// RankHeuristic selects how Algorithm 1 breaks out of cycles when no
// zero-in-degree address remains.
type RankHeuristic int

const (
	// RankMaxOutDegree is the paper's heuristic: among the addresses with
	// minimum in-degree, pick the first (lowest subscript) with the
	// maximum out-degree — "for the address with more dependencies, its
	// transaction sorting result will affect the sorting of more
	// addresses" (§IV-C).
	RankMaxOutDegree RankHeuristic = iota + 1
	// RankMinSubscript is the naive ablation (A2 in DESIGN.md): among the
	// addresses with minimum in-degree, pick the lowest subscript,
	// ignoring out-degrees.
	RankMinSubscript
)

// RankAddresses implements Algorithm 1 (sorting rank division): an
// optimized topological sort over the address-dependency graph that keeps
// making progress when cycles exist. It returns the vertex ids of the ACG in
// sorting-rank order (rank 0 first).
//
// The iterative structure replaces the paper's tail recursion. Two paths:
//
//   - Fast path (no cycle blocking): a min-heap of zero-in-degree vertices
//     pops the smallest subscript, exactly Kahn's algorithm — O(V+E) total.
//   - Cycle path: when no vertex has zero in-degree, the heuristic's pick
//     is the top of a lazily updated heap over the remaining vertices keyed
//     (in-degree ↑, out-degree ↓, subscript ↑). The heap is built at the
//     first blocked round — an acyclic graph never pays for it — and from
//     then on remove files one entry per in-degree change, so all blocked
//     rounds together cost O((V+E)·log(V+E)) instead of two O(V) scans
//     each. Its keys pack three vertex-sized fields into 64 bits, which
//     caps an epoch at 2^21 - 1 addresses.
func RankAddresses(acg *ACG, heuristic RankHeuristic) []int {
	return new(ranker).rank(acg, heuristic)
}

// ranker holds rank division's arrays between calls: a Scheduler keeps one
// per working state, so an epoch reuses the last one's. The returned order
// is one of them, valid until the next call.
type ranker struct {
	deg, rev, fill []int32
	zero, blocked  maxHeap
	removed        []bool
	seq            []int
}

// rank is RankAddresses on r's arrays.
func (r *ranker) rank(acg *ACG, heuristic RankHeuristic) []int {
	g := &acg.Deps
	n := g.N()
	if n == 0 {
		return nil
	}

	// inDeg and outDeg track the live degrees (edges among non-removed
	// vertices); the max-out-degree heuristic consults the latter. Vertex
	// v's predecessors are rev[revOff[v]:revOff[v+1]], so removing a vertex
	// can decrement the live out-degrees of its predecessors.
	deg := slab.Reuse(r.deg, 3*n+1)
	r.deg = deg
	inDeg, outDeg, revOff := deg[:n], deg[n:2*n], deg[2*n:]
	copy(inDeg, g.in)
	for v := 0; v < n; v++ {
		outDeg[v] = int32(g.OutDegree(v))
		revOff[v+1] = revOff[v] + inDeg[v]
	}
	rev := slab.Reuse(r.rev, int(revOff[n]))
	fill := append(r.fill[:0], revOff[:n]...)
	r.rev, r.fill = rev, fill
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			rev[fill[v]] = int32(u)
			fill[v]++
		}
	}

	// zero holds the zero-in-degree vertices, smallest subscript on top.
	zero := r.zero[:0]
	for v := 0; v < n; v++ {
		if inDeg[v] == 0 {
			zero.push(^uint64(v))
		}
	}

	// blocked files every live vertex under (in-degree ↑, out-degree ↓,
	// subscript ↑) as of filing, packed w bits a field with the ascending
	// ones inverted; the min-subscript heuristic files out-degree 0. It
	// stays empty until the first cycle-blocked round.
	const w, mask = 21, 1<<21 - 1
	if n > mask {
		panic("core: rank division packs vertex keys in 64 bits; too many addresses")
	}
	file := func(v int) uint64 {
		var out uint64
		if heuristic == RankMaxOutDegree {
			out = uint64(outDeg[v])
		}
		return (mask-uint64(inDeg[v]))<<(2*w) | out<<w | (mask - uint64(v))
	}
	blocked := r.blocked[:0]
	built := false

	removed := slab.Reuse(r.removed, n)
	seq := slab.Reuse(r.seq, n)[:0]
	r.removed, r.seq = removed, seq
	remove := func(u int) {
		removed[u] = true
		seq = append(seq, u)
		for _, v := range g.Out(u) {
			if removed[v] {
				continue
			}
			inDeg[v]--
			if inDeg[v] == 0 {
				zero.push(^uint64(v))
			} else if built {
				// A lower in-degree is a better key, which cannot wait for
				// the old entry to surface: file a fresh one.
				blocked.push(file(int(v)))
			}
		}
		for _, p := range rev[revOff[u]:revOff[u+1]] {
			if !removed[p] {
				outDeg[p]--
			}
		}
	}

	for len(seq) < n {
		if len(zero) > 0 {
			remove(int(^zero.pop()))
			continue
		}
		// Cycles block every remaining vertex.
		if !built {
			built = true
			for v := 0; v < n; v++ {
				if !removed[v] {
					blocked = append(blocked, file(v))
				}
			}
			blocked.init()
		}
		// Every live vertex has exactly one entry filed under its current
		// in-degree; that entry's out-degree can only be too high, i.e.
		// its filed key too good, so once the top is current it is the
		// heuristic's pick.
		for {
			top := blocked[0]
			v := int(mask - top&mask)
			if removed[v] || top>>(2*w) != mask-uint64(inDeg[v]) {
				blocked.pop()
			} else if now := file(v); top != now {
				blocked[0] = now
				blocked.down(0)
			} else {
				blocked.pop()
				remove(v)
				break
			}
		}
	}
	r.zero, r.blocked = zero[:0], blocked[:0]
	return seq
}
