// Package graph provides the directed-graph algorithms the reproduction
// needs, implemented from scratch on a compact adjacency representation:
//
//   - Tarjan's strongly-connected-components algorithm [Tarjan 1972], used
//     by the CG baseline to localize cycles before enumerating them.
//   - Johnson's elementary-circuit enumeration [Johnson 1975], the cycle
//     detection step of Fabric++/FabricSharp that the paper's strawman
//     (§III-D) inherits.
//   - Kahn's topological sort, used by the CG baseline for the final serial
//     order.
//
// Vertices are dense ints [0, n); callers maintain their own mapping to
// transactions or addresses. All algorithms are deterministic: neighbors are
// visited in insertion order and tie-breaks favor smaller vertex ids.
package graph

import "fmt"

// Directed is a mutable directed graph with dense integer vertices.
// Parallel edges are coalesced; self-loops are allowed and reported as
// length-1 cycles.
type Directed struct {
	n   int
	adj [][]int        // out-neighbors, ascending insertion
	in  []int          // in-degree per vertex
	set []map[int]bool // edge membership for O(1) duplicate checks
}

// NewDirected returns a graph with n vertices and no edges.
func NewDirected(n int) *Directed {
	g := &Directed{
		n:   n,
		adj: make([][]int, n),
		in:  make([]int, n),
		set: make([]map[int]bool, n),
	}
	return g
}

// N returns the number of vertices.
func (g *Directed) N() int { return g.n }

// AddEdge inserts the edge u→v if absent. It panics on out-of-range
// vertices: edge endpoints are always program-derived, so a violation is a
// bug, not an input error.
func (g *Directed) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if g.set[u] == nil {
		g.set[u] = make(map[int]bool)
	}
	if g.set[u][v] {
		return
	}
	g.set[u][v] = true
	g.adj[u] = append(g.adj[u], v)
	g.in[v]++
}

// HasEdge reports whether the edge u→v exists.
func (g *Directed) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	return g.set[u][v]
}

// Out returns the out-neighbors of u in insertion order. The slice is owned
// by the graph; callers must not mutate it.
func (g *Directed) Out(u int) []int { return g.adj[u] }

// TopoSort returns a topological order of the graph using Kahn's algorithm,
// breaking ties toward the smallest vertex id (a deterministic order is
// required for cross-node schedule agreement). The second result is false if
// the graph contains a cycle; the returned prefix then covers only the
// vertices outside cycles reachable before the first stall.
func (g *Directed) TopoSort() ([]int, bool) {
	indeg := make([]int, g.n)
	copy(indeg, g.in)
	// A min-heap keyed by vertex id keeps tie-breaking deterministic.
	var h IntMinHeap
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			h.Push(v)
		}
	}
	order := make([]int, 0, g.n)
	for h.Len() > 0 {
		u := h.Pop()
		order = append(order, u)
		for _, v := range g.adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				h.Push(v)
			}
		}
	}
	return order, len(order) == g.n
}

// IntMinHeap is a minimal binary min-heap of ints. It avoids
// container/heap's interface indirection in Kahn's algorithm. The zero
// value is an empty heap ready for use.
type IntMinHeap struct{ a []int }

// Len returns the number of elements.
func (h *IntMinHeap) Len() int { return len(h.a) }

// Push inserts x.
func (h *IntMinHeap) Push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

// Pop removes and returns the minimum; it panics on an empty heap.
func (h *IntMinHeap) Pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.a) && h.a[l] < h.a[smallest] {
			smallest = l
		}
		if r < len(h.a) && h.a[r] < h.a[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
	return top
}
