package cfg

// The offline call graph: static (compile-time-resolvable) call edges
// between the functions of the loaded packages, plus the bottom-up SCC
// ordering the flow analyzers use to compute per-function summaries
// callees-first. Dynamic dispatch — interface methods, function values
// — resolves to the interface/declared object or not at all; analyzers
// treat an unresolved or summary-less callee conservatively (dettaint
// stops taint, lockorder assumes no acquisitions) and the doc.go of
// each analyzer states that limit.

import (
	"go/ast"
	"go/types"
)

// FuncInfo is one analyzable function body: a declared function/method
// (Decl and Obj set) or a function literal (Lit set, Obj nil — literals
// get no summaries, but their bodies are scanned for local findings).
type FuncInfo struct {
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Obj  *types.Func
	G    *CFG
}

// Name renders the function for diagnostics.
func (f *FuncInfo) Name() string {
	if f.Obj != nil {
		return f.Obj.FullName()
	}
	return "func literal"
}

// Body returns the function's block statement.
func (f *FuncInfo) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// PackageFuncs returns every function body in the files — declared
// functions first (source order), then function literals (source order)
// — each with its CFG built and each declaration's object resolved
// through info. Bodiless declarations are skipped.
func PackageFuncs(info *types.Info, files []*ast.File) []*FuncInfo {
	var decls, lits []*FuncInfo
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				obj, _ := info.Defs[n.Name].(*types.Func)
				decls = append(decls, &FuncInfo{Decl: n, Obj: obj, G: New(n.Body)})
			case *ast.FuncLit:
				lits = append(lits, &FuncInfo{Lit: n, G: New(n.Body)})
			}
			return true
		})
	}
	return append(decls, lits...)
}

// StaticCallee resolves a call expression to its compile-time callee:
// a package function, a method (by declared receiver), or a method
// expression. Calls through function values, builtins, and type
// conversions return nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// RecvTypeName names a method's receiver type, through a pointer ("" for
// a plain function or an unnamed receiver).
func RecvTypeName(fn *types.Func) string {
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

// CallsIn returns the static callees invoked anywhere in the function's
// body (FuncLits included: a closure defined here runs with this
// function's call obligations from the analyses' point of view — both
// flow analyzers scan literal bodies separately for local findings, but
// the call-graph edge keeps summary ordering right when a function
// passes work to its own closure).
func CallsIn(info *types.Info, fi *FuncInfo) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(fi.Body(), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := StaticCallee(info, call); fn != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// Summarize is the bottom-up summary driver of the flow analyzers: it
// visits the BottomUp groups callees-first, so a function's visit sees
// the summaries of every callee outside its group. A recursive group
// (mutually recursive functions, or one that calls itself) first runs
// rounds non-final passes to let its members' summaries settle; then
// every group runs one final pass, the one that records and reports.
func Summarize(info *types.Info, fns []*FuncInfo, rounds int, visit func(fn *FuncInfo, final bool)) {
	for _, group := range BottomUp(info, fns) {
		recursive := len(group) > 1
		if !recursive && group[0].Obj != nil {
			for _, callee := range CallsIn(info, group[0]) {
				recursive = recursive || callee == group[0].Obj
			}
		}
		for i := 0; recursive && i < rounds; i++ {
			for _, fn := range group {
				visit(fn, false)
			}
		}
		for _, fn := range group {
			visit(fn, true)
		}
	}
}

// BottomUp groups the declared functions into strongly connected
// components of the intra-package call graph and returns the groups
// callees-first: by the time a group is visited, every function it
// calls outside the group has already been visited. Mutually recursive
// functions share a group. Function literals (Obj == nil) have no call
// edges, so each is a singleton group, after the declarations as in fns.
func BottomUp(info *types.Info, fns []*FuncInfo) [][]*FuncInfo {
	byObj := map[*types.Func]int{}
	for i, f := range fns {
		if f.Obj != nil {
			byObj[f.Obj] = i
		}
	}
	// Intra-package adjacency by index.
	adj := make([][]int, len(fns))
	for i, f := range fns {
		if f.Obj == nil {
			continue
		}
		for _, callee := range CallsIn(info, f) {
			if j, ok := byObj[callee]; ok {
				adj[i] = append(adj[i], j)
			}
		}
	}
	var groups [][]*FuncInfo
	for _, comp := range SCC(len(fns), func(v int) []int { return adj[v] }) {
		group := make([]*FuncInfo, len(comp))
		for i, v := range comp {
			group[i] = fns[v]
		}
		groups = append(groups, group)
	}
	return groups
}

// SCC is Tarjan's algorithm over the nodes 0..n-1 with successors succ,
// searching from each unvisited node in index order. Components come
// out in the order they complete — reverse topological, so every
// component a component reaches comes before it — each in stack-pop
// order.
func SCC(n int, succ func(int) []int) [][]int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var comps [][]int
	next := 0
	var strong func(int)
	strong = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if index[w] == unvisited {
				strong(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			strong(v)
		}
	}
	return comps
}
