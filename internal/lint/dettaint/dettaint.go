package dettaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/nezha-dag/nezha/internal/lint"
	"github.com/nezha-dag/nezha/internal/lint/analysis"
	"github.com/nezha-dag/nezha/internal/lint/analysis/cfg"
)

// Analyzer tracks nondeterminism taint interprocedurally from sources
// (map iteration order, select winners, wall-clock reads, unseeded
// rand, channel receive order) into consensus-critical sinks (RLP
// encoding, trie writes, journal events, mempool assembly order). See
// doc.go for the taint domain, the sanitizer set, and the limits.
var Analyzer = &analysis.Analyzer{
	Name:      "dettaint",
	Doc:       "flag nondeterministic values and orderings flowing into consensus-critical sinks, across function and package boundaries",
	Run:       run,
	FactTypes: []analysis.Fact{(*FnFact)(nil)},
}

// kind is a bitmask of taint flavors. A taint value carries exactly one
// bit; fact entries may carry both.
type kind uint8

const (
	// orderKind: the VALUE is deterministic content in nondeterministic
	// order (map keys collected by ranging). Sorting kills it.
	orderKind kind = 1 << iota
	// valueKind: the content itself is nondeterministic (wall-clock,
	// rand, which select case won). Sorting does not help.
	valueKind
)

func (k kind) String() string {
	switch {
	case k&orderKind != 0 && k&valueKind != 0:
		return "nondeterministic ordering and value"
	case k&orderKind != 0:
		return "nondeterministic ordering"
	default:
		return "nondeterministic value"
	}
}

// Step is one hop of a flow trace, oldest first. Positions index the
// run's shared FileSet, so a trace may cross package boundaries.
type Step struct {
	Pos token.Pos
	Msg string
}

// Trace is one taint flavor plus the path that produced it.
type Trace struct {
	Kind  kind
	Steps []Step
}

// SinkTrace records that taint arriving on a parameter reaches a sink
// inside the function (or deeper through its callees).
type SinkTrace struct {
	Kinds kind
	What  string
	Steps []Step
}

// FnFact is a function's dataflow summary, exported as an object fact
// so callers — in this package or any later-analyzed one — can see
// through the call without reanalyzing the body.
type FnFact struct {
	// Result: taints any result carries regardless of the arguments
	// (e.g. a helper that ranges one of its map parameters: iteration
	// order taints the result no matter what the caller passed).
	Result []Trace
	// ParamFlow[i]: taint of these kinds on argument i flows into a
	// result (the receiver is argument 0 for methods).
	ParamFlow map[int]kind
	// ParamSink[i]: argument i reaches a sink inside the callee.
	ParamSink map[int][]SinkTrace
}

// AFact marks FnFact as an analysis fact.
func (*FnFact) AFact() {}

const (
	maxTaints      = 8  // taints tracked per variable
	maxSteps       = 12 // hops kept per trace
	maxFactEntries = 4  // traces kept per fact list
)

// taint is one tracked flow on a value during intraprocedural analysis.
type taint struct {
	k kind // exactly one kind bit
	// param is -1 for a real source; >= 0 marks the symbolic taint
	// seeded on that parameter, used to build ParamFlow/ParamSink.
	param int
	steps []Step
}

func (t taint) id() string {
	p := token.NoPos
	if len(t.steps) > 0 {
		p = t.steps[0].Pos
	}
	return fmt.Sprintf("%d|%d|%d", t.k, t.param, p)
}

// state maps variables to the taints they may carry at a program point.
type state map[types.Object][]taint

// sinkSpec names a sink by package path tail, receiver type, and
// function name — matched structurally, so test fixtures named like the
// real packages exercise the same table.
type sinkSpec struct{ pkg, recv, name, what string }

// sinks are calls whose arguments must be deterministic: anything
// feeding them nondeterministic content or ordering diverges the chain
// state (or its audit trail) across replicas.
var sinks = []sinkSpec{
	{"rlp", "", "Encode", "canonical RLP encoding"},
	{"rlp", "", "AppendString", "canonical RLP encoding"},
	{"rlp", "", "AppendListHeader", "canonical RLP encoding"},
	{"mpt", "Trie", "Update", "state-trie batch write"},
	{"mpt", "Trie", "Put", "state-trie write"},
	{"mpt", "Trie", "Delete", "state-trie delete"},
	{"journal", "Recorder", "Emit", "deterministic journal event"},
}

// orderedResults are functions whose RESULT order is a cross-node
// contract: returning content in nondeterministic order is the bug even
// though no call argument is involved.
var orderedResults = []sinkSpec{
	{"mempool", "Pool", "Assemble", "mempool assembly order"},
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	fns := cfg.PackageFuncsInfo(info, pass.Files)
	for _, group := range cfg.BottomUp(info, fns) {
		// Recursive groups iterate to let summaries stabilize before the
		// reporting pass; everything else converges in one.
		recursive := len(group) > 1
		if !recursive && group[0].Obj != nil {
			for _, callee := range cfg.CallsIn(info, group[0]) {
				if callee == group[0].Obj {
					recursive = true
				}
			}
		}
		if recursive {
			for i := 0; i < 3; i++ {
				for _, fn := range group {
					fact := analyzeFunc(pass, fn, false)
					if fn.Obj != nil {
						pass.ExportObjectFact(fn.Obj, fact)
					}
				}
			}
		}
		for _, fn := range group {
			fact := analyzeFunc(pass, fn, true)
			if fn.Obj != nil {
				pass.ExportObjectFact(fn.Obj, fact)
			}
		}
	}
	return nil, nil
}

// funcAnalysis is the per-function dataflow run.
type funcAnalysis struct {
	pass    *analysis.Pass
	fn      *cfg.FuncInfo
	file    *ast.File
	seedSt  state
	paramOf map[types.Object]int
	results []types.Object // named results, read by bare returns
	// selectRecv marks comm statements of multi-way selects: their
	// received values depend on which case was ready first.
	selectRecv map[ast.Node]bool
	contract   *sinkSpec
	fact       *FnFact
	// recording gates fact/report emission: off during the fixpoint
	// iterations, on for the single post-fixpoint sweep.
	recording bool
	report    bool
	seen      map[string]bool
}

func analyzeFunc(pass *analysis.Pass, fn *cfg.FuncInfo, report bool) *FnFact {
	fa := &funcAnalysis{
		pass:       pass,
		fn:         fn,
		file:       pass.FileFor(fn.Body().Pos()),
		paramOf:    map[types.Object]int{},
		selectRecv: map[ast.Node]bool{},
		fact:       &FnFact{},
		report:     report,
		seen:       map[string]bool{},
	}
	fa.setup()
	g := fn.G
	rpo := g.RPO()
	out := make([]state, len(g.Blocks))
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, b := range rpo {
			st := fa.transfer(b, fa.inState(b, out))
			if !statesEqual(out[b.Index], st) {
				out[b.Index] = st
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	fa.recording = true
	for _, b := range rpo {
		fa.transfer(b, fa.inState(b, out))
	}
	return fa.fact
}

// setup seeds the symbolic parameter taints, finds named results, marks
// multi-way select receives, and resolves the ordered-result contract.
func (fa *funcAnalysis) setup() {
	idx := 0
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				idx++ // unnamed parameter still consumes an index
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					if obj := fa.pass.TypesInfo.Defs[name]; obj != nil {
						fa.paramOf[obj] = idx
					}
				}
				idx++
			}
		}
	}
	var results *ast.FieldList
	if d := fa.fn.Decl; d != nil {
		addList(d.Recv)
		addList(d.Type.Params)
		results = d.Type.Results
	} else if l := fa.fn.Lit; l != nil {
		addList(l.Type.Params)
		results = l.Type.Results
	}
	if results != nil {
		for _, field := range results.List {
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				if obj := fa.pass.TypesInfo.Defs[name]; obj != nil {
					fa.results = append(fa.results, obj)
				}
			}
		}
	}
	ast.Inspect(fa.fn.Body(), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			ready := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					ready++
				}
			}
			if ready < 2 {
				return true
			}
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					fa.selectRecv[cc.Comm] = true
				}
			}
		}
		return true
	})
	if fa.fn.Obj != nil {
		fa.contract = matchSpec(orderedResults, fa.fn.Obj)
	}
	fa.seedSt = state{}
	for obj, i := range fa.paramOf {
		fa.seedSt[obj] = []taint{{k: orderKind, param: i}, {k: valueKind, param: i}}
	}
}

func (fa *funcAnalysis) inState(b *cfg.Block, out []state) state {
	if b == fa.fn.G.Entry {
		return cloneState(fa.seedSt)
	}
	st := state{}
	for _, p := range b.Preds {
		for obj, ts := range out[p.Index] {
			merged := st[obj]
			for _, t := range ts {
				merged = addTaint(merged, t)
			}
			st[obj] = merged
		}
	}
	return st
}

// transfer applies one block's nodes to st, returning the out-state.
// The "defer" chain re-holds deferred calls already scanned at their
// registration point (where Go evaluates the arguments), so those
// blocks skip the sink scan.
func (fa *funcAnalysis) transfer(b *cfg.Block, st state) state {
	skipScan := b.Kind == "defer"
	for _, n := range b.Nodes {
		if fa.recording && !skipScan {
			fa.scanCalls(n, st)
		}
		fa.apply(n, st)
	}
	return st
}

// apply is the node transfer function.
func (fa *funcAnalysis) apply(n ast.Node, st state) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		fa.assign(n, st)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			if len(vs.Values) == len(vs.Names) {
				for i, name := range vs.Names {
					fa.assignTo(name, fa.exprTaint(vs.Values[i], st), st)
				}
			} else if len(vs.Values) == 1 {
				ts := fa.exprTaint(vs.Values[0], st)
				for _, name := range vs.Names {
					fa.assignTo(name, ts, st)
				}
			}
		}
	case *ast.RangeStmt:
		fa.rangeHead(n, st)
	case *ast.ReturnStmt:
		fa.ret(n, st)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			fa.stmtSanitize(call, st)
		}
	}
}

// assign handles = / := / op=.
func (fa *funcAnalysis) assign(n *ast.AssignStmt, st state) {
	sel := fa.selectRecv[n]
	withSel := func(ts []taint) []taint {
		if !sel {
			return ts
		}
		return addTaint(ts, taint{k: valueKind, param: -1, steps: []Step{
			{Pos: n.Pos(), Msg: "received from whichever select case was ready first"},
		}})
	}
	switch n.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(n.Lhs) == len(n.Rhs) {
			vals := make([][]taint, len(n.Rhs))
			for i, r := range n.Rhs {
				vals[i] = withSel(fa.exprTaint(r, st))
			}
			for i, l := range n.Lhs {
				fa.assignTo(l, vals[i], st)
			}
		} else if len(n.Rhs) == 1 {
			ts := withSel(fa.exprTaint(n.Rhs[0], st))
			for _, l := range n.Lhs {
				fa.assignTo(l, ts, st)
			}
		}
	default:
		// op=: a commutative fold of numerics (sum, product, xor, and,
		// or) yields the same final value in any accumulation order, so
		// ordering taint dies; content taint survives.
		ts := fa.exprTaint(n.Rhs[0], st)
		if commutativeAssign(n.Tok) && isNumeric(fa.pass.TypesInfo.TypeOf(n.Lhs[0])) {
			ts = dropKind(ts, orderKind)
		}
		fa.weakAssign(n.Lhs[0], ts, st)
	}
}

// assignTo writes ts into an assignable expression: strong update for a
// plain identifier, weak (accumulating) update through any projection.
func (fa *funcAnalysis) assignTo(l ast.Expr, ts []taint, st state) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj := fa.objOf(l); obj != nil {
			st[obj] = capTaints(append([]taint(nil), ts...))
		}
	case *ast.IndexExpr:
		// A map write is order-insensitive: inserting the same pairs in
		// any order builds the same map, so ordering taint dies here.
		if t := fa.pass.TypesInfo.TypeOf(l.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				ts = dropKind(ts, orderKind)
			}
		}
		fa.weakAssign(l.X, ts, st)
	default:
		fa.weakAssign(l, ts, st)
	}
}

func (fa *funcAnalysis) weakAssign(l ast.Expr, ts []taint, st state) {
	obj := fa.rootObj(l)
	if obj == nil {
		return
	}
	merged := st[obj]
	for _, t := range ts {
		merged = addTaint(merged, t)
	}
	st[obj] = merged
}

// rangeHead transfers the range header: the loop variables inherit the
// operand's taints, plus fresh ordering taint when the operand iterates
// in nondeterministic order (map, channel).
func (fa *funcAnalysis) rangeHead(rs *ast.RangeStmt, st state) {
	ts := fa.exprTaint(rs.X, st)
	if msg := unorderedOperand(fa.pass.TypesInfo, rs.X); msg != "" {
		ts = addTaint(ts, taint{k: orderKind, param: -1, steps: []Step{{Pos: rs.Pos(), Msg: msg}}})
	}
	if rs.Key != nil {
		fa.assignTo(rs.Key, ts, st)
	}
	if rs.Value != nil {
		fa.assignTo(rs.Value, ts, st)
	}
}

// unorderedOperand reports why ranging the operand is order-
// nondeterministic ("" when it is not). maps.Keys/Values/All come back
// as call sources from exprTaint instead.
func unorderedOperand(info *types.Info, x ast.Expr) string {
	t := info.TypeOf(x)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return "iterates a map in randomized order"
	case *types.Chan:
		return "receives in goroutine-completion order"
	}
	return ""
}

// ret records result taints into the summary and enforces the ordered-
// result contract.
func (fa *funcAnalysis) ret(n *ast.ReturnStmt, st state) {
	if !fa.recording {
		return
	}
	var all []taint
	if len(n.Results) > 0 {
		for _, r := range n.Results {
			all = unionTaints(all, fa.exprTaint(r, st))
		}
	} else {
		for _, obj := range fa.results {
			all = unionTaints(all, st[obj])
		}
	}
	for _, t := range all {
		if t.param >= 0 {
			if fa.fact.ParamFlow == nil {
				fa.fact.ParamFlow = map[int]kind{}
			}
			fa.fact.ParamFlow[t.param] |= t.k
			continue
		}
		fa.addResult(Trace{Kind: t.k, Steps: t.steps})
		if fa.report && fa.contract != nil && t.k&orderKind != 0 {
			fa.reportAt(n.Pos(), t, fmt.Sprintf(
				"result ordering of %s derives from %s; sort before returning, or justify with //nezha:dettaint-ok <reason>",
				fa.fn.Obj.Name(), sourceOf(t)),
				appendSteps(t.steps, Step{Pos: n.Pos(), Msg: "returned as " + fa.contract.what}))
		}
	}
}

// scanCalls checks every call in the node against the sink table and
// against callee ParamSink summaries. Range headers scan only their
// operand (the body statements live in their own blocks); FuncLits are
// analyzed separately.
func (fa *funcAnalysis) scanCalls(n ast.Node, st state) {
	root := n
	if rs, ok := n.(*ast.RangeStmt); ok {
		root = rs.X
	}
	ast.Inspect(root, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			fa.checkSink(call, st)
		}
		return true
	})
}

func (fa *funcAnalysis) checkSink(call *ast.CallExpr, st state) {
	callee := cfg.StaticCallee(fa.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	if spec := matchSpec(sinks, callee); spec != nil {
		for _, arg := range call.Args {
			for _, t := range fa.exprTaint(arg, st) {
				fa.hitSink(call, t, spec.what, nil)
			}
		}
	}
	var f FnFact
	if !fa.pass.ImportObjectFact(callee, &f) || len(f.ParamSink) == 0 {
		return
	}
	eargs := effectiveArgs(fa.pass.TypesInfo, call, callee)
	for i, arg := range eargs {
		entries := f.ParamSink[paramIndex(callee, i)]
		if len(entries) == 0 {
			continue
		}
		for _, t := range fa.exprTaint(arg, st) {
			for _, entry := range entries {
				if t.k&entry.Kinds == 0 {
					continue
				}
				mid := append([]Step{{Pos: call.Pos(), Msg: "passed to " + callee.Name()}}, entry.Steps...)
				fa.hitSink(call, t, entry.What, mid)
			}
		}
	}
}

// hitSink handles taint arriving at a sink: real taint reports, a
// symbolic parameter taint becomes a ParamSink fact so the analyzer
// reports at the outermost tainted call site instead.
func (fa *funcAnalysis) hitSink(call *ast.CallExpr, t taint, what string, extra []Step) {
	steps := appendSteps(t.steps, extra...)
	if t.param >= 0 {
		fa.addParamSink(t.param, SinkTrace{Kinds: t.k, What: what, Steps: steps})
		return
	}
	if !fa.report {
		return
	}
	fa.reportAt(call.Pos(), t, fmt.Sprintf(
		"%s (%s) flows into %s; sort or canonicalize before the sink, or justify with //nezha:dettaint-ok <reason>",
		t.k, sourceOf(t), what),
		appendSteps(steps, Step{Pos: call.Pos(), Msg: "reaches " + what}))
}

// reportAt emits one deduplicated, annotation-aware diagnostic with the
// full source-to-sink trail attached.
func (fa *funcAnalysis) reportAt(pos token.Pos, t taint, msg string, steps []Step) {
	// Dedupe by position and message, not by trace: several paths from
	// equivalent sources (two select cases, two map ranges) would
	// otherwise repeat the finding; the first trace suffices.
	key := fmt.Sprintf("%d|%s", pos, msg)
	if fa.seen[key] {
		return
	}
	fa.seen[key] = true
	ann := lint.FindAnnotation(fa.pass.Fset, fa.file, pos, "dettaint")
	if ann.Found {
		if ann.Reason == "" && !fa.seen["ann|"+fmt.Sprint(ann.Pos)] {
			fa.seen["ann|"+fmt.Sprint(ann.Pos)] = true
			fa.pass.Reportf(ann.Pos, "nezha:dettaint-ok annotation needs a reason")
		}
		return
	}
	path := make([]analysis.PathStep, len(steps))
	for i, s := range steps {
		path[i] = analysis.PathStep{Pos: s.Pos, Message: s.Msg}
	}
	fa.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg, Path: path})
}

// sourceOf names the trace's origin for the message.
func sourceOf(t taint) string {
	if len(t.steps) > 0 {
		return t.steps[0].Msg
	}
	return "a nondeterministic source"
}

// exprTaint evaluates the taints an expression may carry under st.
func (fa *funcAnalysis) exprTaint(e ast.Expr, st state) []taint {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fa.objOf(e); obj != nil {
			return st[obj]
		}
	case *ast.ParenExpr:
		return fa.exprTaint(e.X, st)
	case *ast.StarExpr:
		return fa.exprTaint(e.X, st)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return nil // plain channel receive: contents unmodeled
		}
		return fa.exprTaint(e.X, st)
	case *ast.SelectorExpr:
		// Field access shares the root variable's taint (the analysis is
		// field-insensitive).
		if obj := fa.rootObj(e); obj != nil {
			return st[obj]
		}
	case *ast.IndexExpr:
		return fa.exprTaint(e.X, st)
	case *ast.IndexListExpr:
		return fa.exprTaint(e.X, st)
	case *ast.SliceExpr:
		return fa.exprTaint(e.X, st)
	case *ast.TypeAssertExpr:
		return fa.exprTaint(e.X, st)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return nil // comparisons: implicit flows are out of scope
		}
		return unionTaints(fa.exprTaint(e.X, st), fa.exprTaint(e.Y, st))
	case *ast.CompositeLit:
		var out []taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = unionTaints(out, fa.exprTaint(el, st))
		}
		return out
	case *ast.CallExpr:
		return fa.callTaint(e, st)
	}
	return nil
}

// callTaint evaluates a call: source table, sanitizers, callee summary,
// and the conservative pass-through default for everything unresolved.
func (fa *funcAnalysis) callTaint(call *ast.CallExpr, st state) []taint {
	info := fa.pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				return nil // a count is order-insensitive
			case "append", "min", "max", "copy":
				var out []taint
				for _, a := range call.Args {
					out = unionTaints(out, fa.exprTaint(a, st))
				}
				return out
			default:
				return nil
			}
		}
	}
	callee := cfg.StaticCallee(info, call)
	if callee != nil {
		if k, desc := sourceDesc(callee); k != 0 {
			return []taint{{k: k, param: -1, steps: []Step{{Pos: call.Pos(), Msg: desc}}}}
		}
		if exprSanitizer(callee) {
			var out []taint
			for _, a := range call.Args {
				out = unionTaints(out, fa.exprTaint(a, st))
			}
			return dropKind(out, orderKind)
		}
		var f FnFact
		if fa.pass.ImportObjectFact(callee, &f) {
			var out []taint
			for _, tr := range f.Result {
				out = addTaint(out, taint{k: tr.Kind, param: -1,
					steps: appendSteps(tr.Steps, Step{Pos: call.Pos(), Msg: "via result of " + callee.Name()})})
			}
			eargs := effectiveArgs(info, call, callee)
			for i, arg := range eargs {
				mask := f.ParamFlow[paramIndex(callee, i)]
				if mask == 0 {
					continue
				}
				for _, t := range fa.exprTaint(arg, st) {
					if t.k&mask == 0 {
						continue
					}
					nt := t
					nt.steps = appendSteps(t.steps, Step{Pos: call.Pos(), Msg: "flows through " + callee.Name()})
					out = addTaint(out, nt)
				}
			}
			return out
		}
	}
	// Unresolved or summary-less callee (stdlib, interface method,
	// function value): assume it passes its inputs through. That keeps
	// fmt.Sprintf / strings.Join / slices.Collect chains tainted.
	var out []taint
	for _, a := range call.Args {
		out = unionTaints(out, fa.exprTaint(a, st))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); !ok || !isPkgName(info, id) {
			out = unionTaints(out, fa.exprTaint(sel.X, st))
		}
	}
	return out
}

// stmtSanitize kills ordering taint on the argument of an in-place sort
// used as a statement: the canonical collect-then-sort idiom.
func (fa *funcAnalysis) stmtSanitize(call *ast.CallExpr, st state) {
	fn := cfg.StaticCallee(fa.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return
	}
	ok := false
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			ok = true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			ok = true
		}
	}
	if !ok {
		return
	}
	if obj := fa.rootObj(call.Args[0]); obj != nil {
		st[obj] = dropKind(st[obj], orderKind)
	}
}

// sourceDesc classifies a callee as a taint source. Methods are never
// sources (a *rand.Rand may be deterministically seeded); package-level
// rand functions use the global, unseeded source.
func sourceDesc(fn *types.Func) (kind, string) {
	pkg := fn.Pkg()
	if pkg == nil || fn.Type().(*types.Signature).Recv() != nil {
		return 0, ""
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return valueKind, "wall-clock time." + fn.Name()
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return valueKind, "environment read os." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return 0, ""
		}
		return valueKind, "unseeded " + pkg.Path() + "." + fn.Name()
	case "maps":
		switch fn.Name() {
		case "Keys", "Values", "All":
			return orderKind, "map iteration order via maps." + fn.Name()
		}
	}
	return 0, ""
}

// exprSanitizer: sort-into-a-fresh-slice helpers whose result is ordered
// no matter how the input sequence iterates.
func exprSanitizer(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "slices" {
		return false
	}
	switch fn.Name() {
	case "Sorted", "SortedFunc", "SortedStableFunc":
		return true
	}
	return false
}

// matchSpec matches a callee against a sink table by package path tail,
// receiver type name, and function name.
func matchSpec(specs []sinkSpec, fn *types.Func) *sinkSpec {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	seg := lastSegment(fn.Pkg().Path())
	recv := recvTypeName(fn)
	for i := range specs {
		s := &specs[i]
		if s.pkg == seg && s.name == fn.Name() && s.recv == recv {
			return s
		}
	}
	return nil
}

func lastSegment(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func recvTypeName(fn *types.Func) string {
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return ""
	}
	t := r.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// effectiveArgs aligns call arguments with the callee's parameter
// indexing, which counts the receiver as argument 0 for methods.
func effectiveArgs(info *types.Info, call *ast.CallExpr, callee *types.Func) []ast.Expr {
	if callee.Type().(*types.Signature).Recv() == nil {
		return call.Args
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
	}
	return call.Args // method expression: receiver is already args[0]
}

// paramIndex folds variadic argument positions onto the last parameter.
func paramIndex(callee *types.Func, i int) int {
	sig := callee.Type().(*types.Signature)
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	if n > 0 && i >= n {
		return n - 1
	}
	return i
}

func (fa *funcAnalysis) objOf(id *ast.Ident) types.Object {
	if obj := fa.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return fa.pass.TypesInfo.Uses[id]
}

// rootObj resolves an lvalue-ish expression to its root variable.
func (fa *funcAnalysis) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return fa.objOf(x)
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if isPkgName(fa.pass.TypesInfo, id) {
					return fa.pass.TypesInfo.Uses[x.Sel]
				}
			}
			e = x.X
		default:
			return nil
		}
	}
}

func isPkgName(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.PkgName)
	return ok
}

// fact accumulation with dedupe and caps.

func (fa *funcAnalysis) addResult(tr Trace) {
	key := traceKey(tr.Kind, tr.Steps)
	for _, e := range fa.fact.Result {
		if traceKey(e.Kind, e.Steps) == key {
			return
		}
	}
	if len(fa.fact.Result) < maxFactEntries {
		fa.fact.Result = append(fa.fact.Result, tr)
	}
}

func (fa *funcAnalysis) addParamSink(i int, e SinkTrace) {
	if fa.fact.ParamSink == nil {
		fa.fact.ParamSink = map[int][]SinkTrace{}
	}
	key := e.What + "|" + traceKey(e.Kinds, e.Steps)
	for _, have := range fa.fact.ParamSink[i] {
		if have.What+"|"+traceKey(have.Kinds, have.Steps) == key {
			return
		}
	}
	if len(fa.fact.ParamSink[i]) < maxFactEntries {
		fa.fact.ParamSink[i] = append(fa.fact.ParamSink[i], e)
	}
}

func traceKey(k kind, steps []Step) string {
	p := token.NoPos
	if len(steps) > 0 {
		p = steps[0].Pos
	}
	return fmt.Sprintf("%d|%d", k, p)
}

// taint-set helpers. Slices are treated as immutable: every mutation
// copies, so states can share them freely.

func addTaint(list []taint, t taint) []taint {
	id := t.id()
	for _, e := range list {
		if e.id() == id {
			return list
		}
	}
	if len(list) >= maxTaints {
		return list
	}
	out := make([]taint, len(list)+1)
	copy(out, list)
	out[len(list)] = t
	return out
}

func unionTaints(a, b []taint) []taint {
	for _, t := range b {
		a = addTaint(a, t)
	}
	return a
}

func dropKind(list []taint, k kind) []taint {
	var out []taint
	for _, t := range list {
		if t.k&k == 0 {
			out = append(out, t)
		}
	}
	return out
}

func capTaints(list []taint) []taint {
	if len(list) > maxTaints {
		return list[:maxTaints]
	}
	return list
}

func appendSteps(steps []Step, extra ...Step) []Step {
	out := make([]Step, 0, len(steps)+len(extra))
	out = append(out, steps...)
	out = append(out, extra...)
	if len(out) > maxSteps {
		out = out[:maxSteps]
	}
	return out
}

func cloneState(st state) state {
	out := make(state, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

func statesEqual(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for obj, ts := range a {
		bs, ok := b[obj]
		if !ok || len(bs) != len(ts) {
			return false
		}
		ids := map[string]bool{}
		for _, t := range bs {
			ids[t.id()] = true
		}
		for _, t := range ts {
			if !ids[t.id()] {
				return false
			}
		}
	}
	return true
}

func commutativeAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

func isNumeric(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
