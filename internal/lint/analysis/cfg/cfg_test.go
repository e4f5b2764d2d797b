package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as a file containing one function and returns its
// CFG plus the fileset.
func build(t *testing.T, src string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return New(fn.Body), fset
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// blockByKind returns the first block of the kind, failing when absent.
func blockByKind(t *testing.T, g *CFG, kind string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no %q block in:\n%s", kind, dump(g))
	return nil
}

func dump(g *CFG) string { return g.Dump(token.NewFileSet()) }

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestDeferEdges(t *testing.T) {
	g, _ := build(t, `
func f(cond bool) {
	mu.Lock()
	defer mu.Unlock()
	if cond {
		return
	}
	work()
}`)
	// One defer block sits between every exit path and Exit.
	deferB := blockByKind(t, g, "defer")
	if len(deferB.Nodes) != 1 {
		t.Fatalf("defer block carries %d nodes, want 1 (the call)", len(deferB.Nodes))
	}
	if call, ok := deferB.Nodes[0].(*ast.CallExpr); !ok {
		t.Errorf("defer block node is %T, want *ast.CallExpr", deferB.Nodes[0])
	} else if sel := call.Fun.(*ast.SelectorExpr); sel.Sel.Name != "Unlock" {
		t.Errorf("defer block call is %s, want Unlock", sel.Sel.Name)
	}
	if !hasEdge(deferB, g.Exit) {
		t.Errorf("defer block must edge to exit:\n%s", dump(g))
	}
	// The early return and the fall-off path both route through the defer.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok && !hasEdge(b, deferB) {
				t.Errorf("return block %s bypasses the defer chain:\n%s", b, dump(g))
			}
		}
	}
	// Exit's only predecessor is the defer chain.
	if len(g.Exit.Preds) != 1 || g.Exit.Preds[0] != deferB {
		t.Errorf("exit preds = %v, want only the defer block:\n%s", g.Exit.Preds, dump(g))
	}
}

func TestDeferLIFOChain(t *testing.T) {
	g, _ := build(t, `
func f() {
	defer first()
	defer second()
}`)
	var defers []*Block
	for _, b := range g.Blocks {
		if b.Kind == "defer" {
			defers = append(defers, b)
		}
	}
	if len(defers) != 2 {
		t.Fatalf("got %d defer blocks, want 2:\n%s", len(defers), dump(g))
	}
	// LIFO: the chain runs second() then first() then exit.
	name := func(b *Block) string {
		return b.Nodes[0].(*ast.CallExpr).Fun.(*ast.Ident).Name
	}
	var chainHead *Block
	for _, b := range defers {
		if name(b) == "second" {
			chainHead = b
		}
	}
	if chainHead == nil {
		t.Fatalf("no second() defer block:\n%s", dump(g))
	}
	if len(chainHead.Succs) != 1 || name(chainHead.Succs[0]) != "first" {
		t.Errorf("second() must chain to first():\n%s", dump(g))
	}
	if !hasEdge(chainHead.Succs[0], g.Exit) {
		t.Errorf("first() must chain to exit:\n%s", dump(g))
	}
}

func TestPanicEdge(t *testing.T) {
	g, _ := build(t, `
func f() {
	defer cleanup()
	panic("boom")
}`)
	deferB := blockByKind(t, g, "defer")
	if !hasEdge(g.Entry, deferB) {
		t.Errorf("panic must edge into the defer chain:\n%s", dump(g))
	}
}

func TestShortCircuitBranches(t *testing.T) {
	g, _ := build(t, `
func f(a, b bool) {
	if a && b {
		both()
	}
	done()
}`)
	// a gets its own evaluation point (entry), b another (cond.and); the
	// then-block is only reachable through BOTH.
	and := blockByKind(t, g, "cond.and")
	then := blockByKind(t, g, "if.then")
	done := blockByKind(t, g, "if.done")
	if !hasEdge(g.Entry, and) {
		t.Errorf("a-true must flow to b's evaluation:\n%s", dump(g))
	}
	if !hasEdge(g.Entry, done) {
		t.Errorf("a-false must skip past the body:\n%s", dump(g))
	}
	if hasEdge(g.Entry, then) {
		t.Errorf("then-block reachable without evaluating b:\n%s", dump(g))
	}
	if !hasEdge(and, then) || !hasEdge(and, done) {
		t.Errorf("b's evaluation must branch to then and done:\n%s", dump(g))
	}
}

func TestShortCircuitOrWithNot(t *testing.T) {
	g, _ := build(t, `
func f(a, b bool) {
	if !(a || b) {
		neither()
	}
}`)
	// !(a || b): a-true exits the condition (negated → else), a-false
	// evaluates b.
	or := blockByKind(t, g, "cond.or")
	then := blockByKind(t, g, "if.then")
	done := blockByKind(t, g, "if.done")
	if !hasEdge(g.Entry, or) || !hasEdge(g.Entry, done) {
		t.Errorf("a must branch to b's evaluation and (negated true) done:\n%s", dump(g))
	}
	if hasEdge(g.Entry, then) {
		t.Errorf("then-block reachable from a alone:\n%s", dump(g))
	}
	if !hasEdge(or, then) {
		t.Errorf("b-false (negated) must reach then:\n%s", dump(g))
	}
}

func TestForLoop(t *testing.T) {
	g, _ := build(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		work(i)
	}
	after()
}`)
	head := blockByKind(t, g, "for.head")
	body := blockByKind(t, g, "for.body")
	done := blockByKind(t, g, "for.done")
	if !hasEdge(head, body) || !hasEdge(head, done) {
		t.Errorf("loop head must branch to body and done:\n%s", dump(g))
	}
	// Back edge: the body's tail (where i++ lands) re-enters the head.
	backEdge := false
	for _, p := range head.Preds {
		if p != g.Entry {
			backEdge = true
		}
	}
	if !backEdge {
		t.Errorf("no back edge into the loop head:\n%s", dump(g))
	}
	// break edges to done.
	breakEdge := false
	for _, p := range done.Preds {
		if p != head {
			breakEdge = true
		}
	}
	if !breakEdge {
		t.Errorf("break must edge to for.done:\n%s", dump(g))
	}
	_ = body
}

func TestRangeLoop(t *testing.T) {
	g, fset := build(t, `
func f(m map[string]int) {
	for k := range m {
		use(k)
	}
}`)
	head := blockByKind(t, g, "range.head")
	body := blockByKind(t, g, "range.body")
	done := blockByKind(t, g, "range.done")
	if len(head.Nodes) != 1 {
		t.Fatalf("range head carries %d nodes, want the RangeStmt:\n%s", len(head.Nodes), g.Dump(fset))
	}
	if _, ok := head.Nodes[0].(*ast.RangeStmt); !ok {
		t.Errorf("range head node is %T, want *ast.RangeStmt", head.Nodes[0])
	}
	if !hasEdge(head, body) || !hasEdge(head, done) || !hasEdge(body, head) {
		t.Errorf("range edges wrong:\n%s", g.Dump(fset))
	}
}

func TestLabeledContinue(t *testing.T) {
	g, _ := build(t, `
func f() {
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == i {
				continue outer
			}
		}
	}
}`)
	// The labeled continue must edge to the OUTER loop head, not the inner.
	var heads []*Block
	for _, b := range g.Blocks {
		if b.Kind == "for.head" {
			heads = append(heads, b)
		}
	}
	if len(heads) != 2 {
		t.Fatalf("got %d for.head blocks, want 2:\n%s", len(heads), dump(g))
	}
	outer := heads[0]
	found := false
	for _, p := range outer.Preds {
		if p.Kind == "if.then" {
			found = true
		}
	}
	if !found {
		t.Errorf("continue outer must edge to the outer head:\n%s", dump(g))
	}
}

func TestSelectCases(t *testing.T) {
	g, _ := build(t, `
func f(a, b chan int) {
	select {
	case x := <-a:
		use(x)
	case y := <-b:
		use(y)
	}
}`)
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Kind == "select.case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 2 {
		t.Fatalf("got %d select.case blocks, want 2:\n%s", len(cases), dump(g))
	}
	for _, c := range cases {
		if !hasEdge(g.Entry, c) {
			t.Errorf("entry must branch to every select case:\n%s", dump(g))
		}
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g, _ := build(t, `
func f(x int) {
	switch x {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	default:
		other()
	}
}`)
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Kind == "switch.case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 3 {
		t.Fatalf("got %d switch.case blocks, want 3:\n%s", len(cases), dump(g))
	}
	if !hasEdge(cases[0], cases[1]) {
		t.Errorf("fallthrough must chain case 1 into case 2:\n%s", dump(g))
	}
	// With a default present, head must NOT edge straight to done.
	done := blockByKind(t, g, "switch.done")
	if hasEdge(g.Entry, done) {
		t.Errorf("switch with default must not skip to done:\n%s", dump(g))
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	g, _ := build(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		work(i)
	}
}`)
	rpo := g.RPO()
	if len(rpo) == 0 || rpo[0] != g.Entry {
		t.Fatalf("RPO must start at entry")
	}
	seen := map[*Block]bool{}
	for _, b := range rpo {
		if seen[b] {
			t.Fatalf("block %s repeated in RPO", b)
		}
		seen[b] = true
	}
}

func TestFuncLitOpaque(t *testing.T) {
	g, _ := build(t, `
func f() {
	go func() {
		return
	}()
	after()
}`)
	// The literal's return must not create edges in the outer graph: the
	// only exit predecessors are the outer fall-off path.
	if strings.Contains(dump(g), "defer") {
		t.Fatalf("unexpected defer blocks:\n%s", dump(g))
	}
	for _, p := range g.Exit.Preds {
		if p.Kind == "unreachable" {
			t.Errorf("literal's return leaked into outer CFG:\n%s", dump(g))
		}
	}
}

// TestSCCOrder pins what both callers rely on: a cycle is one component,
// and components complete callees-first (0 calls into the 1-2 cycle,
// which calls 3; 4 stands alone).
func TestSCCOrder(t *testing.T) {
	succ := [][]int{{1}, {2}, {1, 3}, {}, {}}
	got := fmt.Sprint(SCC(len(succ), func(v int) []int { return succ[v] }))
	if want := "[[3] [2 1] [0] [4]]"; got != want {
		t.Errorf("SCC = %s, want %s", got, want)
	}
}
