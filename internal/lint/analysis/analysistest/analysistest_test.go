package analysistest

import (
	"fmt"
	"go/ast"
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/lint/analysis"
)

// flagger reports every function whose name starts with "flag".
var flagger = &analysis.Analyzer{
	Name: "flagger",
	Doc:  "reports every function whose name starts with flag",
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "flag") {
					pass.Reportf(fd.Name.Pos(), "flagged %s", fd.Name.Name)
				}
			}
		}
		return nil, nil
	},
}

// recorder is a testing.TB that keeps the harness's errors instead of
// failing the test; a Fatal still fails it.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestHarnessBites holds the harness to both directions of the want
// check: the corpus has one finding nobody wants and one want nothing
// meets, and exactly those two errors must come out.
func TestHarnessBites(t *testing.T) {
	r := &recorder{TB: t}
	run(r, TestData(), flagger, false, "meta")
	if len(r.errs) != 2 ||
		!strings.Contains(r.errs[0], "meta.go:7:6: unexpected diagnostic: flagged flagUnexpected") ||
		!strings.Contains(r.errs[1], `meta.go:9: expected diagnostic matching "flagged clean", got none`) {
		t.Errorf("harness errors = %q, want the unexpected flagUnexpected and the unmatched clean", r.errs)
	}
}
