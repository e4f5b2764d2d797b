package core

import "github.com/nezha-dag/nezha/internal/graph"

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
//     each.
func RankAddresses(acg *ACG, heuristic RankHeuristic) []int {
	g := acg.Deps
	n := g.N()
	if n == 0 {
		return nil
	}

	inDeg := make([]int32, n)
	// outDeg tracks live out-degree (edges toward non-removed vertices),
	// which the max-out-degree heuristic consults.
	outDeg := make([]int32, n)
	// Reverse adjacency (vertex v's predecessors are rev[revOff[v]:
	// revOff[v+1]]) so removing a vertex can decrement the live
	// out-degrees of its predecessors.
	revOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		inDeg[v] = int32(g.InDegree(v))
		outDeg[v] = int32(g.OutDegree(v))
		revOff[v+1] = revOff[v] + inDeg[v]
	}
	rev := make([]int32, revOff[n])
	fill := make([]int32, n)
	copy(fill, revOff)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			rev[fill[v]] = int32(u)
			fill[v]++
		}
	}

	var zero graph.IntMinHeap
	for v := 0; v < n; v++ {
		if inDeg[v] == 0 {
			zero.Push(v)
		}
	}

	removed := make([]bool, n)
	// blocked files every live vertex under (in-degree, out-degree) as of
	// filing; it stays empty until the first cycle-blocked round.
	type filed struct{ in, out, v int32 }
	blocked := lazyHeap[filed]{less: func(a, b filed) bool {
		if a.in != b.in {
			return a.in < b.in
		}
		if heuristic == RankMaxOutDegree && a.out != b.out {
			return a.out > b.out
		}
		return a.v < b.v
	}}
	built := false

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
			} else if built {
				// A lower in-degree is a better key, which cannot wait for
				// the old entry to surface: file a fresh one.
				blocked.push(filed{inDeg[v], outDeg[v], int32(v)})
			}
		}
		for _, p := range rev[revOff[u]:revOff[u+1]] {
			if !removed[p] {
				outDeg[p]--
			}
		}
	}

	for len(seq) < n {
		if zero.Len() > 0 {
			remove(zero.Pop())
			continue
		}
		// Cycles block every remaining vertex.
		if !built {
			built = true
			blocked.a = make([]filed, 0, n-len(seq))
			for v := 0; v < n; v++ {
				if !removed[v] {
					blocked.a = append(blocked.a, filed{inDeg[v], outDeg[v], int32(v)})
				}
			}
			blocked.init()
		}
		// Every live vertex has exactly one entry filed under its current
		// in-degree; that entry's out-degree can only be too high, i.e.
		// its filed key too good, so once the top is current it is the
		// heuristic's pick.
		for {
			top := &blocked.a[0]
			if v := top.v; removed[v] || top.in != inDeg[v] {
				blocked.pop()
			} else if top.out != outDeg[v] {
				top.out = outDeg[v]
				blocked.fixTop()
			} else {
				blocked.pop()
				remove(int(v))
				break
			}
		}
	}
	return seq
}
