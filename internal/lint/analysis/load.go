package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	Export     string
	Match      []string
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns with `go list -export -deps` (run in dir; "" means
// the current directory, and env is added to the go command's
// environment) and returns a Package for every pattern-matched package,
// parsed with comments and type-checked from source, in dependency order.
// Imports — including the target packages' imports of each other —
// resolve through the build cache's export data, so Load needs the tree
// to compile but never re-type-checks a dependency.
func Load(dir string, env []string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Standard,Export,Match,Incomplete,Error",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if len(lp.Match) > 0 {
			p := lp
			targets = append(targets, &p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (does the tree build?)", path)
		}
		return os.Open(p)
	})

	var pkgs []*Package
	var errs []string
	for _, t := range targets {
		if t.Error != nil {
			errs = append(errs, fmt.Sprintf("%s: %s", t.ImportPath, t.Error.Err))
			continue
		}
		if len(t.CgoFiles) > 0 {
			errs = append(errs, fmt.Sprintf("%s: cgo packages are not supported", t.ImportPath))
			continue
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	if len(errs) > 0 {
		return pkgs, fmt.Errorf("load: %s", strings.Join(errs, "; "))
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: typecheck: %v", path, err)
	}
	return &Package{
		PkgPath:   path,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
