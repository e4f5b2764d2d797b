// Package cfg is the flow layer under the nezha-vet flow analyzers
// (dettaint, lockorder): per-function control-flow graphs, a static
// call graph, and a bottom-up SCC ordering for computing per-function
// dataflow summaries callees-first.
//
// The CFG is statement-granular with two deliberate refinements:
//
//   - Short-circuit expansion: `if a && b { ... }` produces separate
//     blocks for evaluating a and b, with the false edge of each leading
//     past the body — so a flow-sensitive analysis sees that b is only
//     evaluated when a held.
//   - Defer and panic edges: every function gets a defer chain —
//     deferred calls in LIFO order between any exit (return, panic, or
//     falling off the end) and the exit block. The chain over-
//     approximates: a return before a conditional defer was registered
//     still routes through it, which is the safe direction for both
//     held-lock tracking (defer mu.Unlock() keeps mu held to the end)
//     and taint. Panic edges are built for explicit panic(...) calls;
//     arbitrary possibly-panicking calls do not fork the graph (that
//     would drown any analysis in edges).
//
// FuncLits are opaque single nodes in the enclosing function's graph —
// they execute later, under their own CFG (PackageFuncs returns them as
// separate entries).
package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"sort"
	"strings"
)

// CFG is one function body's control-flow graph.
type CFG struct {
	// Blocks in creation order; Blocks[0] is the entry block.
	Blocks []*Block
	// Entry is where execution starts (== Blocks[0]).
	Entry *Block
	// Exit is the single synthetic exit block every terminating path
	// reaches (after the defer chain, when the function has defers).
	Exit *Block
}

// Block is one straight-line run of statements/expressions.
type Block struct {
	Index int
	// Kind names what created the block ("entry", "exit", "if.then",
	// "for.head", "defer", ...) — for tests and debugging.
	Kind string
	// Nodes are the statements and condition expressions executed in the
	// block, in order. Range headers appear as the *ast.RangeStmt itself;
	// deferred calls appear as their *ast.CallExpr inside "defer" blocks.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

func (b *Block) String() string { return fmt.Sprintf("%d.%s", b.Index, b.Kind) }

// builder carries the under-construction graph.
type builder struct {
	cfg *CFG
	cur *Block
	// ret is where a return (or panic) transfers: the defer chain head,
	// or Exit when the function has no defers.
	ret *Block
	// targets is the stack of enclosing breakable/continuable statements.
	targets []*target
	// labels maps label names to their goto/label blocks.
	labels map[string]*Block
}

type target struct {
	label string // enclosing LabeledStmt's name, "" when unlabeled
	brk   *Block // break destination ("done" block); nil for none
	cont  *Block // continue destination (loop head); nil for non-loops
}

// New builds the CFG for one function body.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}, labels: map[string]*Block{}}
	entry := b.newBlock("entry")
	b.cfg.Entry = entry
	exit := b.newBlock("exit")
	b.cfg.Exit = exit

	// Pre-collect defers (FuncLits excluded: their defers are their own)
	// and build the LIFO chain ... -> d2 -> d1 -> exit ahead of the walk,
	// so return edges built mid-walk have a stable destination.
	var defers []*ast.DeferStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			defers = append(defers, n)
		}
		return true
	})
	b.ret = exit
	for _, d := range defers { // source order; chain head ends up last-registered
		db := b.newBlock("defer")
		db.Nodes = append(db.Nodes, d.Call)
		b.addEdge(db, b.ret)
		b.ret = db
	}

	b.cur = entry
	b.stmtList(body.List)
	// Falling off the end runs the defers too.
	b.addEdge(b.cur, b.ret)
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) addEdge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startUnreachable opens a fresh block with no incoming edge — the code
// after a return/panic/branch. It is still built (and analyzable), it
// just has no predecessors.
func (b *builder) startUnreachable() {
	b.cur = b.newBlock("unreachable")
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label carries the name of an
// immediately-enclosing LabeledStmt, so labeled loops register labeled
// break/continue targets.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		els := done
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmtList(s.Body.List)
		b.addEdge(b.cur, done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else, "")
			b.addEdge(b.cur, done)
		}
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		b.addEdge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, done)
		} else {
			b.addEdge(b.cur, body)
		}
		b.pushTarget(&target{label: label, brk: done, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		if s.Post != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Post)
		}
		b.addEdge(b.cur, head)
		b.popTarget()
		b.cur = done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.addEdge(b.cur, head)
		head.Nodes = append(head.Nodes, s) // the range header itself
		b.addEdge(head, body)
		b.addEdge(head, done)
		b.pushTarget(&target{label: label, brk: done, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.addEdge(b.cur, head)
		b.popTarget()
		b.cur = done

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s, label)

	case *ast.SelectStmt:
		head := b.cur
		done := b.newBlock("select.done")
		b.pushTarget(&target{label: label, brk: done})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.addEdge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			b.addEdge(b.cur, done)
		}
		b.popTarget()
		b.cur = done

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.addEdge(b.cur, b.ret)
		b.startUnreachable()

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		// The label's block doubles as the goto target; fall through into
		// the labeled statement with the label attached (for labeled
		// break/continue on loops and switches).
		lb := b.labelBlock(s.Label.Name)
		b.addEdge(b.cur, lb)
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.DeferStmt:
		// Registration point: visible in order, but the call itself sits
		// in the pre-built defer chain before Exit.
		b.cur.Nodes = append(b.cur.Nodes, s)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				// Panic edge: defers run, then the function unwinds.
				b.addEdge(b.cur, b.ret)
				b.startUnreachable()
			}
		}

	default:
		// Assignments, declarations, sends, go statements, empty
		// statements: straight-line nodes.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// switchStmt handles expression and type switches: head evaluates the
// tag, every clause gets a block, fallthrough chains clause bodies.
func (b *builder) switchStmt(s ast.Stmt, label string) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		clauses = s.Body.List
	}
	head := b.cur
	done := b.newBlock("switch.done")
	b.pushTarget(&target{label: label, brk: done})
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		bodies[i] = b.newBlock("switch.case")
		b.addEdge(head, bodies[i])
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st, "")
		}
		if fallsThrough && i+1 < len(bodies) {
			b.addEdge(b.cur, bodies[i+1])
		} else {
			b.addEdge(b.cur, done)
		}
	}
	if !hasDefault {
		b.addEdge(head, done)
	}
	b.popTarget()
	b.cur = done
}

// branch handles break/continue/goto (fallthrough is consumed by
// switchStmt).
func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.brk != nil && (label == "" || t.label == label) {
				b.addEdge(b.cur, t.brk)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.cont != nil && (label == "" || t.label == label) {
				b.addEdge(b.cur, t.cont)
				break
			}
		}
	case token.GOTO:
		b.addEdge(b.cur, b.labelBlock(label))
	}
	b.startUnreachable()
}

func (b *builder) labelBlock(name string) *Block {
	if lb, ok := b.labels[name]; ok {
		return lb
	}
	lb := b.newBlock("label." + name)
	b.labels[name] = lb
	return lb
}

// cond translates a branch condition, expanding short-circuit && and ||
// into their own blocks so each operand's evaluation is a distinct
// flow point: in `a && b`, b only evaluates when a was true.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond.and")
			b.cond(x.X, rhs, f)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.or")
			b.cond(x.X, t, rhs)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		}
	}
	b.cur.Nodes = append(b.cur.Nodes, e)
	b.addEdge(b.cur, t)
	b.addEdge(b.cur, f)
}

func (b *builder) pushTarget(t *target) { b.targets = append(b.targets, t) }
func (b *builder) popTarget()           { b.targets = b.targets[:len(b.targets)-1] }

// RPO returns the blocks reachable from Entry in reverse postorder —
// the canonical iteration order for a forward dataflow worklist.
func (g *CFG) RPO() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Forward solves a forward dataflow problem over g: it sweeps the
// reachable blocks in reverse postorder, each from join of its
// predecessors' out-states (indexed by Block.Index), until no out-state
// changes or 32 sweeps have run. Then it calls settled and sweeps once
// more, so a transfer function that reports only once settled has run
// sees every block exactly once, in its final in-state.
func Forward[S any](g *CFG, join func(b *Block, out []S) S, transfer func(b *Block, in S) S, equal func(x, y S) bool, settled func()) {
	rpo := g.RPO()
	out := make([]S, len(g.Blocks))
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, b := range rpo {
			st := transfer(b, join(b, out))
			if !equal(out[b.Index], st) {
				out[b.Index] = st
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	settled()
	for _, b := range rpo {
		transfer(b, join(b, out))
	}
}

// Dump renders the graph for tests: one line per block, in index order,
// with node sketches and successor indices.
func (g *CFG) Dump(fset *token.FileSet) string {
	var out strings.Builder
	for _, blk := range g.Blocks {
		var nodes []string
		for _, n := range blk.Nodes {
			nodes = append(nodes, sketch(fset, n))
		}
		var succs []string
		for _, s := range blk.Succs {
			succs = append(succs, fmt.Sprint(s.Index))
		}
		sort.Strings(succs)
		fmt.Fprintf(&out, "%d.%s [%s] -> %s\n", blk.Index, blk.Kind, strings.Join(nodes, "; "), strings.Join(succs, " "))
	}
	return out.String()
}

// sketch renders one node compactly (single line, no positions).
func sketch(fset *token.FileSet, n ast.Node) string {
	if rs, ok := n.(*ast.RangeStmt); ok {
		var buf bytes.Buffer
		printer.Fprint(&buf, fset, rs.X)
		return "range " + buf.String()
	}
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, n)
	s := buf.String()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + "..."
	}
	return s
}
