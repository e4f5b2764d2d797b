package registry

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"

	"github.com/nezha-dag/nezha/internal/lint"
	"github.com/nezha-dag/nezha/internal/lint/analysis"
)

// Analyzer enforces the name-registry discipline of internal/fail and
// internal/journal. See doc.go.
var Analyzer = &analysis.Analyzer{
	Name: "registry",
	Doc:  "require registered fail.Name and journal.Kind constants at their call sites; confine arming helpers to harnesses and journal emits to non-critical packages",
	Run:  run,
}

// RegistryFile is where a registry's constants must live inside its
// package.
const RegistryFile = "names.go"

// nameRE is the grammar both registries share: slash-separated
// lower-case segments.
var nameRE = regexp.MustCompile(`^[a-z0-9-]+(/[a-z0-9-]+)*$`)

// registry is one package whose string-typed constants name something
// every node and harness must spell identically.
type registry struct {
	pkg, typ string // the package and its registered type: fail.Name
	noun     string // what one constant names, in messages
	// nameArgs are the package's functions and methods whose first
	// argument is a registered name.
	nameArgs map[string]bool
	// refuse says why a package at path may not call fn at all ("" when
	// it may).
	refuse func(path, fn string) string
}

var registries = []registry{
	{
		pkg: "fail", typ: "Name", noun: "failpoint name",
		nameArgs: map[string]bool{"Hit": true, "HitTag": true, "Drop": true, "Enable": true, "Disable": true},
		// Production code hits failpoints; only tests and the fault-
		// injection harnesses arm them: internal/chaos (which also hosts
		// the crash-point sweep) and internal/stress (the chaos soak).
		refuse: func(path, fn string) string {
			switch fn {
			case "Enable", "Disable", "Reset", "Seed":
				if !lint.PathIs(path, "chaos") && !lint.PathIs(path, "stress") {
					return "armed-only helper fail." + fn + " outside _test.go and the harness packages (internal/chaos, internal/stress); production code hits failpoints, it never arms them"
				}
			}
			return ""
		},
	},
	{
		pkg: "journal", typ: "Kind", noun: "journal kind",
		nameArgs: map[string]bool{"Emit": true},
		refuse: func(path, fn string) string {
			if fn == "Emit" && lint.IsCritical(path) {
				return "journal.Emit in determinism-critical package " + path + "; the flight recorder observes these packages from their call sites, it never runs inside them"
			}
			return ""
		},
	},
}

func run(pass *analysis.Pass) (any, error) {
	for i := range registries {
		r := &registries[i]
		if lint.PathIs(pass.Pkg.Path(), r.pkg) && pass.Pkg.Name() == r.pkg {
			r.checkRegistry(pass)
		} else if imp := r.importedPkg(pass.Pkg); imp != nil {
			r.checkUses(pass, imp)
		}
	}
	return nil, nil
}

// checkUses checks every call into the imported registry package.
func (r *registry) checkUses(pass *analysis.Pass, imp *types.Package) {
	registered := r.registeredNames(imp)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() != imp {
				return true
			}
			switch o := obj.(type) {
			case *types.TypeName:
				// A fail.Name(x) conversion: the laundering point for
				// dynamic names — x must be a registered compile-time value.
				if o.Name() == r.typ && len(call.Args) == 1 {
					r.checkNameExpr(pass, registered, call.Args[0], true)
				}
			case *types.Func:
				if why := r.refuse(pass.Pkg.Path(), o.Name()); why != "" {
					pass.Reportf(call.Pos(), "%s", why)
				}
				if r.nameArgs[o.Name()] && len(call.Args) > 0 {
					r.checkNameExpr(pass, registered, call.Args[0], false)
				}
			}
			return true
		})
	}
}

// checkNameExpr validates one name expression. conversion marks a
// fail.Name(x) argument, where a non-constant x is itself the violation.
func (r *registry) checkNameExpr(pass *analysis.Pass, registered map[string]string, e ast.Expr, conversion bool) {
	qual := r.pkg + "." + r.typ
	tv, ok := pass.TypesInfo.Types[e]
	if ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		v := constant.StringVal(tv.Value)
		if _, ok := registered[v]; !ok {
			pass.Reportf(e.Pos(), "unregistered %s %q; declare it as a %s constant in internal/%s/%s", r.noun, v, qual, r.pkg, RegistryFile)
		}
		return
	}
	if conversion {
		pass.Reportf(e.Pos(), "%s conversion from a non-constant; use a registered constant from internal/%s/%s", qual, r.pkg, RegistryFile)
		return
	}
	// Not a compile-time constant: only acceptable when the expression is
	// already of the registered type (its construction sites are checked
	// above).
	if named, ok := tv.Type.(*types.Named); ok && named.Obj().Name() == r.typ && named.Obj().Pkg() != nil && lint.PathIs(named.Obj().Pkg().Path(), r.pkg) {
		return
	}
	pass.Reportf(e.Pos(), "%s must be a registered %s constant from internal/%s/%s, not a dynamic %s", r.noun, qual, r.pkg, RegistryFile, tv.Type)
}

// checkRegistry runs inside the registry package itself: its constants
// live in names.go, match the grammar, and are unique.
func (r *registry) checkRegistry(pass *analysis.Pass) {
	type decl struct {
		name, value, file string
		id                *ast.Ident
	}
	var decls []decl
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Package).Filename)
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if c, ok := pass.TypesInfo.Defs[id].(*types.Const); ok && r.isRegistered(c, pass.Pkg) {
						decls = append(decls, decl{id.Name, constant.StringVal(c.Val()), base, id})
					}
				}
			}
		}
	}
	sort.SliceStable(decls, func(i, j int) bool { return decls[i].id.Pos() < decls[j].id.Pos() })
	byValue := map[string]string{}
	for _, d := range decls {
		if d.file != RegistryFile {
			pass.Reportf(d.id.Pos(), "%s.%s constant %s declared in %s; the registry is %s", r.pkg, r.typ, d.name, d.file, RegistryFile)
		}
		if !nameRE.MatchString(d.value) {
			pass.Reportf(d.id.Pos(), "%s %q does not match ^[a-z0-9-]+(/[a-z0-9-]+)*$", r.noun, d.value)
		}
		if prev, dup := byValue[d.value]; dup {
			pass.Reportf(d.id.Pos(), "duplicate %s %q (already registered as %s)", r.noun, d.value, prev)
		} else {
			byValue[d.value] = d.name
		}
	}
}

// registeredNames reads the registry out of the imported package's scope
// (export data carries constant values): value -> constant name.
func (r *registry) registeredNames(pkg *types.Package) map[string]string {
	out := map[string]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && r.isRegistered(c, pkg) {
			out[constant.StringVal(c.Val())] = name
		}
	}
	return out
}

// isRegistered reports whether c is a constant of pkg's registered type.
func (r *registry) isRegistered(c *types.Const, pkg *types.Package) bool {
	named, ok := c.Type().(*types.Named)
	return ok && named.Obj().Name() == r.typ && named.Obj().Pkg() == pkg
}

// importedPkg finds the directly imported registry package, if any.
func (r *registry) importedPkg(pkg *types.Package) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Name() == r.pkg && lint.PathIs(imp.Path(), r.pkg) {
			return imp
		}
	}
	return nil
}
