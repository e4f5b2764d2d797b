// Package analysistest runs an analyzer over GOPATH-style testdata
// packages and checks its diagnostics against `// want` expectations, the
// same convention as golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want `unordered map iteration`
//
// A want comment holds one or more backquoted regexps and applies to
// diagnostics reported on its own line. Test packages live under
// testdata/src/<importpath>/ and may import each other or the standard
// library. They load and run exactly as nezha-vet loads and runs the
// tree — analysis.Load (`go list -export -deps` in GOPATH mode, with
// testdata as the GOPATH) and analysis.Run — so a sibling package
// arrives through export data, facts cross packages by their canonical
// key, packages run in dependency order whatever order a test lists
// them in, and Finish findings are checked like any other.
package analysistest

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/lint/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory, the conventional root for Run's packages.
func TestData() string {
	d, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return d
}

// Run loads the testdata packages, applies the analyzer, and reports any
// mismatch between diagnostics and `// want` expectations through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, testdata, a, false, pkgPaths...)
}

// RunWithSuggestedFixes is Run plus golden-file checking: every file that
// received suggested fixes is patched in memory, as nezha-vet -fix would
// patch it, and compared byte-for-byte against <file>.golden.
func RunWithSuggestedFixes(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, testdata, a, true, pkgPaths...)
}

func run(t testing.TB, testdata string, a *analysis.Analyzer, fixes bool, pkgPaths ...string) {
	t.Helper()
	env := []string{"GO111MODULE=off", "GOPATH=" + testdata, "GOFLAGS="}
	pkgs, err := analysis.Load(testdata, env, pkgPaths...)
	if err != nil {
		t.Fatalf("loading %v: %v", pkgPaths, err)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := expectations(t, pkgs)
	for _, f := range findings {
		pos := f.Fset.Position(f.Pos)
		if !match(wants, pos, f.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
	if fixes {
		checkGolden(t, findings)
	}
}

// expectation is one backquoted pattern from a want comment.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`")

// expectations collects the want patterns of every loaded file.
func expectations(t testing.TB, pkgs []*analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//")
					if !ok {
						continue
					}
					rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
						rx, err := regexp.Compile(m[1])
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, m[1], err)
							continue
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
					}
				}
			}
		}
	}
	return wants
}

// match marks the first unmatched want on pos's line whose pattern
// matches msg, reporting whether there was one.
func match(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// checkGolden compares each fixed file with its .golden sibling.
func checkGolden(t testing.TB, findings []analysis.Finding) {
	t.Helper()
	fixed, err := analysis.Fixed(findings)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range fixed {
		golden, err := os.ReadFile(name + ".golden")
		if err != nil {
			t.Errorf("%s has suggested fixes but no golden file: %v", name, err)
			continue
		}
		if !bytes.Equal(src, golden) {
			t.Errorf("%s: fixed output differs from %s.golden:\n-- got --\n%s\n-- want --\n%s", name, name, src, golden)
		}
	}
}
