package graph

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

func TestAddEdgeDeduplicates(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	if len(g.Out(0)) != 2 {
		t.Fatalf("out-degree = %d, want 2", len(g.Out(0)))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if g.in[1] != 1 || g.in[0] != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDirected(2).AddEdge(0, 5)
}

func TestTopoSortLinear(t *testing.T) {
	g := NewDirected(4)
	g.AddEdge(3, 2)
	g.AddEdge(2, 1)
	g.AddEdge(1, 0)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("acyclic graph reported cyclic")
	}
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortTieBreaksBySmallestID(t *testing.T) {
	g := NewDirected(5)
	g.AddEdge(4, 0)
	// 1, 2, 3, 4 all start with zero in-degree: expect ascending output.
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("reported cyclic")
	}
	want := []int{1, 2, 3, 4, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, ok := g.TopoSort(); ok {
		t.Fatal("cycle not detected")
	}
}

func sortComponents(comps [][]int) {
	for _, c := range comps {
		sort.Ints(c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
}

func TestSCCs(t *testing.T) {
	// Two 3-cycles bridged by one edge, plus an isolated vertex.
	g := NewDirected(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	comps := g.SCCs()
	sortComponents(comps)
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	if len(comps) != len(want) {
		t.Fatalf("got %d components, want %d: %v", len(comps), len(want), comps)
	}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestNontrivialSCCs(t *testing.T) {
	g := NewDirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 2) // self-loop counts
	comps := g.NontrivialSCCs()
	sortComponents(comps)
	if len(comps) != 2 {
		t.Fatalf("got %d nontrivial components: %v", len(comps), comps)
	}
	if comps[0][0] != 0 || comps[0][1] != 1 || comps[1][0] != 2 {
		t.Fatalf("components = %v", comps)
	}
}

func TestSCCsIterativeOnDeepChain(t *testing.T) {
	// A 200k-vertex cycle would blow a recursive Tarjan's goroutine stack
	// budget in one frame burst; the iterative version must handle it.
	const n = 200_000
	g := NewDirected(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	comps := g.SCCs()
	if len(comps) != 1 || len(comps[0]) != n {
		t.Fatalf("giant cycle not one component: %d comps", len(comps))
	}
}

func collectCycles(t *testing.T, g *Directed, limit int) [][]int {
	t.Helper()
	var cycles [][]int
	err := g.ElementaryCycles(limit, func(c []int) {
		cp := make([]int, len(c))
		copy(cp, c)
		cycles = append(cycles, cp)
	})
	if err != nil {
		t.Fatalf("ElementaryCycles: %v", err)
	}
	return cycles
}

func TestElementaryCyclesSimple(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(1, 0)
	cycles := collectCycles(t, g, 0)
	if len(cycles) != 2 {
		t.Fatalf("got %d cycles, want 2: %v", len(cycles), cycles)
	}
}

func TestElementaryCyclesSelfLoop(t *testing.T) {
	g := NewDirected(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	cycles := collectCycles(t, g, 0)
	if len(cycles) != 1 || len(cycles[0]) != 1 || cycles[0][0] != 0 {
		t.Fatalf("self-loop cycles = %v", cycles)
	}
}

func TestElementaryCyclesCompleteGraph(t *testing.T) {
	// K4 has 20 elementary circuits: C(4,2)=6 2-cycles, 8 3-cycles,
	// 6 4-cycles.
	g := NewDirected(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				g.AddEdge(i, j)
			}
		}
	}
	cycles := collectCycles(t, g, 0)
	if len(cycles) != 20 {
		t.Fatalf("K4 cycles = %d, want 20", len(cycles))
	}
	count, err := g.CountCycles(0)
	if err != nil || count != 20 {
		t.Fatalf("CountCycles = %d, %v", count, err)
	}
}

func TestElementaryCyclesLimit(t *testing.T) {
	g := NewDirected(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				g.AddEdge(i, j)
			}
		}
	}
	count, err := g.CountCycles(5)
	if !errors.Is(err, ErrTooManyCycles) {
		t.Fatalf("err = %v, want ErrTooManyCycles", err)
	}
	if count != 6 { // limit+1 cycles observed before stopping
		t.Fatalf("count = %d, want 6", count)
	}
}

func TestElementaryCyclesAcyclic(t *testing.T) {
	g := NewDirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	if cycles := collectCycles(t, g, 0); len(cycles) != 0 {
		t.Fatalf("acyclic graph produced cycles: %v", cycles)
	}
}

// cycleCanonical rotates a cycle so its minimal vertex comes first,
// providing a set-comparable form.
func cycleCanonical(c []int) string {
	minIdx := 0
	for i, v := range c {
		if v < c[minIdx] {
			minIdx = i
		}
	}
	out := make([]byte, 0, len(c)*3)
	for i := 0; i < len(c); i++ {
		v := c[(minIdx+i)%len(c)]
		out = append(out, byte('0'+v/100), byte('0'+(v/10)%10), byte('0'+v%10))
	}
	return string(out)
}

// bruteForceCycles enumerates elementary circuits by trying every start
// vertex and DFS-ing simple paths back to it, keeping each cycle only when
// the start is its minimal vertex (so each circuit is counted once).
func bruteForceCycles(g *Directed) map[string]bool {
	out := make(map[string]bool)
	n := g.N()
	var path []int
	onPath := make([]bool, n)
	var dfs func(start, v int)
	dfs = func(start, v int) {
		path = append(path, v)
		onPath[v] = true
		for _, w := range g.Out(v) {
			if w == start {
				out[cycleCanonical(path)] = true
			} else if !onPath[w] && w > start {
				dfs(start, w)
			}
		}
		onPath[v] = false
		path = path[:len(path)-1]
	}
	for s := 0; s < n; s++ {
		dfs(s, s)
	}
	return out
}

// TestElementaryCyclesAgainstBruteForce cross-checks Johnson against a
// brute-force DFS enumeration on random graphs.
func TestElementaryCyclesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5)
		g := NewDirected(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.35 {
					g.AddEdge(i, j)
				}
			}
		}
		want := bruteForceCycles(g)
		got := make(map[string]bool)
		err := g.ElementaryCycles(0, func(c []int) {
			key := cycleCanonical(c)
			if got[key] {
				t.Fatalf("trial %d: duplicate cycle %v", trial, c)
			}
			got[key] = true
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: johnson found %d cycles, brute force %d", trial, len(got), len(want))
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("trial %d: cycle %q missed by johnson", trial, key)
			}
		}
	}
}

// TestIntMinHeapProperty drives the heap through random interleaved
// push/pop sequences against a sorted-slice oracle. (A sift-down bug in an
// earlier version of this heap silently produced valid-looking but
// non-minimal pops, breaking cross-node determinism — hence the paranoia.)
func TestIntMinHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var h IntMinHeap
		var vals []int
		for i := 0; i < 60; i++ {
			if rng.Intn(3) > 0 || h.Len() == 0 {
				v := rng.Intn(100)
				h.Push(v)
				vals = append(vals, v)
			} else {
				got := h.Pop()
				sort.Ints(vals)
				if got != vals[0] {
					t.Fatalf("trial %d: pop = %d, want %d", trial, got, vals[0])
				}
				vals = vals[1:]
			}
		}
		sort.Ints(vals)
		for _, want := range vals {
			if got := h.Pop(); got != want {
				t.Fatalf("trial %d drain: pop = %d, want %d", trial, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: heap not empty after drain", trial)
		}
	}
}
