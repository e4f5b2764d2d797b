package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"github.com/nezha-dag/nezha/internal/lint"
	"github.com/nezha-dag/nezha/internal/lint/analysis"
	"github.com/nezha-dag/nezha/internal/lint/analysis/cfg"
)

// Analyzer builds the global mutex-acquisition-order graph and reports
// cycles (potential ABBA deadlocks) plus same-family nested
// acquisitions (self-deadlock, or shard aliasing under the per-shard
// collapse), and flags channel sends and failpoint hits made while a
// lock is held. See doc.go.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "detect lock-order cycles, same-family nested acquisitions, and locks held across failpoint sites or channel sends",
	Run:       run,
	Finish:    finish,
	FactTypes: []analysis.Fact{(*LockFact)(nil)},
}

// AcqSite is one mutex acquisition a function may perform, directly or
// through its callees.
type AcqSite struct {
	Family string
	Pos    token.Pos
	Excl   bool // Lock (true) vs RLock (false)
}

// LockFact is a function's acquisition summary, exported as an object
// fact so callers see through the call — including across packages.
type LockFact struct {
	Acquires []AcqSite
}

// AFact marks LockFact as an analysis fact.
func (*LockFact) AFact() {}

const maxAcquires = 48

// sharedKey indexes the run-global edge set in Pass.Shared.
type sharedKey struct{}

type edgeKey struct{ from, to string }

// edgeVal is the first witness of an acquisition-order edge: where the
// held lock was taken, and where the second one was (a lock statement,
// or the call site of a callee that locks).
type edgeVal struct {
	fromPos, toPos token.Pos
	via            string // callee name for interprocedural edges
}

func edgeSet(pass *analysis.Pass) map[edgeKey]edgeVal {
	if es, ok := pass.Shared[sharedKey{}].(map[edgeKey]edgeVal); ok {
		return es
	}
	es := map[edgeKey]edgeVal{}
	pass.Shared[sharedKey{}] = es
	return es
}

func run(pass *analysis.Pass) (any, error) {
	// Callees first, so each held-set sweep sees every local callee's
	// acquisitions (cross-package callees were summarized when their
	// package ran). A recursive group sweeps once more: the union is
	// monotone and capped, so twice reaches the fixpoint we keep.
	cfg.Summarize(pass.TypesInfo, cfg.PackageFuncs(pass.TypesInfo, pass.Files), 1, func(fn *cfg.FuncInfo, final bool) {
		fact := checkHeld(pass, fn, final)
		if fn.Obj != nil {
			pass.ExportObjectFact(fn.Obj, fact)
		}
	})
	return nil, nil
}

// heldInfo is one currently-held lock family.
type heldInfo struct {
	pos  token.Pos
	excl bool
	expr string // the locked expression as written ("s.mu"), for messages
}

type state map[string]heldInfo

// failSites are the internal/fail entry points a production path hits.
var failSites = map[string]bool{"Hit": true, "HitTag": true, "Drop": true}

// checkHeld runs the held-set dataflow over the function's CFG and
// returns the function's acquisition summary: every lock it takes,
// directly or through a callee. In the final pass, every acquisition
// while something is held also records an order edge, same-family
// reacquisition reports, and so does a channel send or failpoint hit
// while the set is non-empty. The defer chain blocks apply deferred
// unlocks at exit, which is what keeps `mu.Lock(); defer mu.Unlock()`
// held through the whole body. Goroutine bodies and `go` calls are
// skipped — a spawned goroutine is its own thread and starts with
// nothing held.
func checkHeld(pass *analysis.Pass, fn *cfg.FuncInfo, final bool) *LockFact {
	fa := &heldAnalysis{pass: pass, fn: fn, fact: &LockFact{}, acquired: map[string]bool{}, seen: map[string]bool{}}
	cfg.Forward(fn.G, fa.inState, fa.transfer, maps.Equal[state], func() { fa.settled, fa.recording = true, final })
	return fa.fact
}

type heldAnalysis struct {
	pass *analysis.Pass
	fn   *cfg.FuncInfo
	// settled marks the one sweep after the fixpoint, which collects the
	// summary; recording additionally records edges and reports, in the
	// final pass only.
	settled, recording bool
	fact               *LockFact
	acquired           map[string]bool
	seen               map[string]bool
}

// acquire adds one acquisition to the summary, first site per family
// and mode, up to maxAcquires.
func (fa *heldAnalysis) acquire(a AcqSite) {
	key := a.Family + "|" + fmt.Sprint(a.Excl)
	if !fa.settled || fa.acquired[key] || len(fa.fact.Acquires) >= maxAcquires {
		return
	}
	fa.acquired[key] = true
	fa.fact.Acquires = append(fa.fact.Acquires, a)
}

func (fa *heldAnalysis) inState(b *cfg.Block, out []state) state {
	st := state{}
	for _, p := range b.Preds {
		for fam, h := range out[p.Index] {
			if have, ok := st[fam]; !ok || h.pos < have.pos {
				st[fam] = h
			}
		}
	}
	return st
}

func (fa *heldAnalysis) transfer(b *cfg.Block, st state) state {
	for _, n := range b.Nodes {
		// Deferred calls act at the defer chain blocks before exit, not
		// at their registration statement.
		if _, ok := n.(*ast.DeferStmt); ok {
			continue
		}
		root := n
		if rs, ok := n.(*ast.RangeStmt); ok {
			root = rs.X
		}
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.SendStmt:
				fa.heldAcross(m, "channel send", st)
			case *ast.CallExpr:
				fa.call(m, st)
			}
			return true
		})
	}
	return st
}

// heldAcross reports a channel send or failpoint hit made while st holds
// a lock: an armed delay spec (or a slow receiver) stalls everyone queued
// on the lock, and a panic spec abandons it. The fail package manages its
// own mutex around its own sites.
func (fa *heldAnalysis) heldAcross(n ast.Node, what string, st state) {
	if !fa.recording || len(st) == 0 || lint.PathIs(fa.pass.Pkg.Path(), "fail") ||
		lint.Suppressed(fa.pass, n.Pos(), "locksafe") {
		return
	}
	held := make([]heldInfo, 0, len(st))
	for _, h := range st {
		held = append(held, h)
	}
	sort.Slice(held, func(i, j int) bool { return held[i].pos < held[j].pos })
	exprs := make([]string, len(held))
	for i, h := range held {
		exprs[i] = h.expr
	}
	fa.reportOnce(n.Pos(), fmt.Sprintf(
		"%s while holding %s; an armed delay spec stalls the lock and a panic spec abandons it — release first, or justify with //nezha:locksafe-ok <reason>",
		what, strings.Join(exprs, ", ")), nil)
}

// call applies one call's lock effects to the held set.
func (fa *heldAnalysis) call(call *ast.CallExpr, st state) {
	info := fa.pass.TypesInfo
	if op, ok := classify(info, fa.fn, call); ok {
		if !op.acquire {
			delete(st, op.family)
			return
		}
		fa.acquire(AcqSite{Family: op.family, Pos: call.Pos(), Excl: op.excl})
		if have, held := st[op.family]; held {
			// RLock-after-RLock is shared-compatible; anything involving
			// an exclusive side can self-deadlock — and under the
			// per-shard collapse, "same family" may be two shards, which
			// still deserves a look (nested shard locks want an order).
			if op.excl || have.excl {
				fa.reportNested(call.Pos(), op.family, have)
			}
			return // keep the original acquisition position
		}
		for fam, h := range st {
			fa.recordEdge(fam, op.family, h.pos, call.Pos(), "")
		}
		st[op.family] = heldInfo{pos: call.Pos(), excl: op.excl, expr: op.expr}
		return
	}
	callee := cfg.StaticCallee(info, call)
	if callee == nil || callee == fa.fn.Obj {
		return
	}
	if failSites[callee.Name()] && lint.PathIs(callee.Pkg().Path(), "fail") {
		fa.heldAcross(call, "failpoint fail."+callee.Name()+" hit", st)
	}
	var f LockFact
	if !fa.pass.ImportObjectFact(callee, &f) {
		return
	}
	for _, a := range f.Acquires {
		fa.acquire(a)
		if have, held := st[a.Family]; held {
			if a.Excl || have.excl {
				fa.reportNestedCall(call.Pos(), callee.Name(), a, have)
			}
			continue
		}
		for fam, h := range st {
			fa.recordEdge(fam, a.Family, h.pos, call.Pos(), callee.Name())
		}
		// The callee is assumed balanced: it releases before returning,
		// so the held set does not grow past the call.
	}
}

// recordEdge adds an acquisition-order edge to the run-global graph,
// first witness wins. An annotation at the acquisition site excludes
// the edge (and thereby any cycle through it).
func (fa *heldAnalysis) recordEdge(from, to string, fromPos, toPos token.Pos, via string) {
	if !fa.recording || from == to {
		return
	}
	es := edgeSet(fa.pass)
	k := edgeKey{from: from, to: to}
	if _, ok := es[k]; ok {
		return
	}
	if lint.Suppressed(fa.pass, toPos, "lockorder") {
		return
	}
	es[k] = edgeVal{fromPos: fromPos, toPos: toPos, via: via}
}

func (fa *heldAnalysis) reportNested(pos token.Pos, fam string, have heldInfo) {
	fa.reportAnnotated(pos, fmt.Sprintf(
		"lock family %s acquired again while already held; same-family locks may alias (per-shard collapse) — release first, restructure, or justify with //nezha:lockorder-ok <reason>",
		fam),
		[]analysis.PathStep{{Pos: have.pos, Message: "first acquired here"}})
}

func (fa *heldAnalysis) reportNestedCall(pos token.Pos, callee string, a AcqSite, have heldInfo) {
	fa.reportAnnotated(pos, fmt.Sprintf(
		"call to %s acquires lock family %s, which is already held here — deadlock risk; release first, or justify with //nezha:lockorder-ok <reason>",
		callee, a.Family),
		[]analysis.PathStep{
			{Pos: have.pos, Message: "first acquired here"},
			{Pos: a.Pos, Message: "acquired again inside " + callee},
		})
}

func (fa *heldAnalysis) reportAnnotated(pos token.Pos, msg string, path []analysis.PathStep) {
	if !fa.recording || lint.Suppressed(fa.pass, pos, "lockorder") {
		return
	}
	fa.reportOnce(pos, msg, path)
}

func (fa *heldAnalysis) reportOnce(pos token.Pos, msg string, path []analysis.PathStep) {
	if !fa.recording {
		return
	}
	key := fmt.Sprintf("%d|%s", pos, msg)
	if fa.seen[key] {
		return
	}
	fa.seen[key] = true
	fa.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg, Path: path})
}

// finish runs once after every package: cycle detection over the global
// acquisition-order graph. One report per strongly connected component,
// anchored at the first edge of a concrete witness cycle, with the full
// edge trail attached.
func finish(pass *analysis.Pass) (any, error) {
	es, _ := pass.Shared[sharedKey{}].(map[edgeKey]edgeVal)
	if len(es) == 0 {
		return nil, nil
	}
	adj := map[string][]string{}
	nodeSet := map[string]bool{}
	for k := range es {
		adj[k.from] = append(adj[k.from], k.to)
		nodeSet[k.from], nodeSet[k.to] = true, true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	idx := map[string]int{}
	for i, n := range nodes {
		idx[n] = i
	}
	succ := make([][]int, len(nodes))
	for from, tos := range adj {
		sort.Strings(tos)
		for _, to := range tos {
			succ[idx[from]] = append(succ[idx[from]], idx[to])
		}
	}
	// Components come out reverse topological, tie-broken by the sorted
	// roots; each is reported from its smallest member.
	for _, comp := range cfg.SCC(len(nodes), func(v int) []int { return succ[v] }) {
		if len(comp) < 2 {
			continue // self-edges are never recorded, so singletons are acyclic
		}
		sort.Ints(comp)
		scc := make([]string, len(comp))
		for i, v := range comp {
			scc[i] = nodes[v]
		}
		cycle := findCycle(scc, adj)
		if len(cycle) == 0 {
			continue
		}
		var path []analysis.PathStep
		for i := 0; i < len(cycle); i++ {
			from, to := cycle[i], cycle[(i+1)%len(cycle)]
			e := es[edgeKey{from: from, to: to}]
			acq := "acquires " + to
			if e.via != "" {
				acq += " via " + e.via
			}
			path = append(path,
				analysis.PathStep{Pos: e.fromPos, Message: "holding " + from},
				analysis.PathStep{Pos: e.toPos, Message: acq})
		}
		first := es[edgeKey{from: cycle[0], to: cycle[1]}]
		names := append(append([]string{}, cycle...), cycle[0])
		pass.Report(analysis.Diagnostic{
			Pos: first.toPos,
			Message: fmt.Sprintf(
				"lock-order cycle: %s; acquire lock families in one global order, or justify an edge site with //nezha:lockorder-ok <reason>",
				strings.Join(names, " -> ")),
			Path: path,
		})
	}
	return nil, nil
}

// findCycle returns a concrete edge cycle within the component,
// starting at its smallest member (for deterministic reports).
func findCycle(scc []string, adj map[string][]string) []string {
	in := map[string]bool{}
	for _, n := range scc {
		in[n] = true
	}
	start := scc[0] // finish sorted each component
	var path []string
	visited := map[string]bool{}
	var dfs func(string) bool
	dfs = func(v string) bool {
		path = append(path, v)
		visited[v] = true
		for _, w := range adj[v] {
			if !in[w] {
				continue
			}
			if w == start && len(path) > 1 {
				return true
			}
			if !visited[w] {
				if dfs(w) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}

// lockOp is one classified sync.Mutex/RWMutex operation.
type lockOp struct {
	family  string
	expr    string
	acquire bool
	excl    bool
}

// classify recognizes Lock/RLock/Unlock/RUnlock calls on sync.Mutex and
// sync.RWMutex by the callee's type (not the method name string), and
// resolves the receiver expression to a lock family. TryLock is ignored
// (its failure branch is not modeled).
func classify(info *types.Info, fn *cfg.FuncInfo, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	mfn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || mfn.Pkg() == nil || mfn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	recv := cfg.RecvTypeName(mfn)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockOp{}, false
	}
	op := lockOp{expr: types.ExprString(sel.X)}
	switch mfn.Name() {
	case "Lock":
		op.acquire, op.excl = true, true
	case "RLock":
		op.acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockOp{}, false
	}
	op.family = familyOf(info, sel.X, fn, recv)
	if op.family == "" {
		return lockOp{}, false
	}
	return op, true
}

// familyOf names the lock family of a mutex-valued expression:
//
//	s.mu            -> pkg.S.mu          (field: owner type + field name)
//	shards[i].mu    -> pkg.Shard.mu      (per-shard collapse is automatic:
//	                                      the family is the TYPE's field)
//	p.Lock()        -> pkg.Pool.Mutex    (embedded sync type)
//	var mu (pkg)    -> pkg.mu            (package-level variable)
//	var mu (local)  -> pkg.fnName.mu     (function-local variable)
//
// Unresolvable shapes (pointer aliases through locals, map elements of
// mutex type) return "" and are not tracked.
func familyOf(info *types.Info, e ast.Expr, fn *cfg.FuncInfo, syncType string) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.StarExpr:
		return familyOf(info, x.X, fn, syncType)
	case *ast.SelectorExpr:
		if fld, ok := info.Uses[x.Sel].(*types.Var); ok && fld.IsField() {
			if t := ownerNamed(info.TypeOf(x.X)); t != nil {
				return typeFamily(t) + "." + fld.Name()
			}
		}
		return ""
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		// Embedded sync type: the ident is the outer struct.
		if t := ownerNamed(v.Type()); t != nil && !isSyncType(t) {
			return typeFamily(t) + "." + syncType
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return v.Pkg().Path() + "." + funcLabel(fn) + "." + v.Name()
	}
	return ""
}

func funcLabel(fn *cfg.FuncInfo) string {
	if fn.Obj != nil {
		return fn.Obj.Name()
	}
	return "func"
}

// ownerNamed unwraps pointers to the named type underneath, or nil.
func ownerNamed(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

func isSyncType(n *types.Named) bool {
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}

func typeFamily(n *types.Named) string {
	if pkg := n.Obj().Pkg(); pkg != nil {
		return pkg.Path() + "." + n.Obj().Name()
	}
	return n.Obj().Name()
}
