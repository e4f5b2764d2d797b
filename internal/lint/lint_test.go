package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"github.com/nezha-dag/nezha/internal/lint/analysis"
)

const annotSrc = `package p

func f(m map[string]int) {
	for k := range m { //nezha:nondeterminism-ok sums are commutative
		_ = k
	}
	//nezha:nondeterminism-ok
	for k := range m {
		_ = k
	}
	//nezha:nondeterminism-okay not the marker
	for k := range m {
		_ = k
	}
	for k := range m { //nezha:locksafe-ok wrong check family
		_ = k
	}

	//nezha:nondeterminism-ok too far away
	_ = m
	for k := range m {
		_ = k
	}
}
`

func TestFindAnnotation(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", annotSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var ranges []*ast.RangeStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			ranges = append(ranges, rs)
		}
		return true
	})
	if len(ranges) != 5 {
		t.Fatalf("got %d range statements, want 5", len(ranges))
	}

	// Trailing annotation with a reason.
	ann := FindAnnotation(fset, file, ranges[0].Pos(), "nondeterminism")
	if !ann.Found || ann.Reason != "sums are commutative" {
		t.Errorf("trailing annotation: got %+v", ann)
	}
	// Line-above annotation, reason missing: Found with empty Reason, so
	// the analyzers can flag the unexplained escape hatch itself.
	ann = FindAnnotation(fset, file, ranges[1].Pos(), "nondeterminism")
	if !ann.Found || ann.Reason != "" {
		t.Errorf("reasonless annotation: got %+v", ann)
	}
	// Prefix collision (-okay) is not the marker.
	if ann := FindAnnotation(fset, file, ranges[2].Pos(), "nondeterminism"); ann.Found {
		t.Errorf("-okay suffix treated as annotation: %+v", ann)
	}
	// Wrong check family does not match.
	if ann := FindAnnotation(fset, file, ranges[3].Pos(), "nondeterminism"); ann.Found {
		t.Errorf("locksafe annotation matched nondeterminism check: %+v", ann)
	}
	// Two lines above the statement is out of range.
	if ann := FindAnnotation(fset, file, ranges[4].Pos(), "nondeterminism"); ann.Found {
		t.Errorf("distant annotation matched: %+v", ann)
	}
}

// TestSuppressed pins the shared escape hatch: any annotation of the
// family suppresses, and a reasonless one is reported once, however many
// findings it covers.
func TestSuppressed(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", annotSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var ranges []*ast.RangeStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			ranges = append(ranges, rs)
		}
		return true
	})
	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer: &analysis.Analyzer{Name: "t"},
		Fset:     fset,
		Files:    []*ast.File{file},
		Report:   func(d analysis.Diagnostic) { got = append(got, d) },
		Shared:   map[any]any{},
	}
	if !Suppressed(pass, ranges[0].Pos(), "nondeterminism") || len(got) != 0 {
		t.Errorf("annotation with a reason: suppressed=false or reported %v", got)
	}
	for i := 0; i < 2; i++ {
		if !Suppressed(pass, ranges[1].Pos(), "nondeterminism") {
			t.Errorf("reasonless annotation did not suppress")
		}
	}
	if len(got) != 1 || got[0].Message != "nezha:nondeterminism-ok annotation needs a reason" {
		t.Errorf("reasonless annotation: got %v, want one needs-a-reason report", got)
	}
	if Suppressed(pass, ranges[3].Pos(), "nondeterminism") {
		t.Errorf("locksafe annotation suppressed a nondeterminism finding")
	}
}

func TestIsCritical(t *testing.T) {
	for _, path := range []string{
		"github.com/nezha-dag/nezha/internal/core",
		"github.com/nezha-dag/nezha/internal/mpt",
		"internal/rlp",
	} {
		if !IsCritical(path) {
			t.Errorf("IsCritical(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"github.com/nezha-dag/nezha/internal/node",
		"github.com/nezha-dag/nezha/internal/corex",
		"notinternal/core/sub",
	} {
		if IsCritical(path) {
			t.Errorf("IsCritical(%q) = true, want false", path)
		}
	}
}
