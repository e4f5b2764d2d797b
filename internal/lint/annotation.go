package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"github.com/nezha-dag/nezha/internal/lint/analysis"
)

// Annotation is the parsed state of a `//nezha:<check>-ok <reason>` escape
// hatch next to a flagged statement. See doc.go for the grammar.
type Annotation struct {
	// Found reports that an annotation for the check is present on the
	// statement's line or the line immediately above it.
	Found bool
	// Reason is the justification text after the marker. The analyzers
	// treat an empty Reason as a violation of its own: an unexplained
	// escape hatch is worse than none.
	Reason string
	// Pos is where the annotation comment starts (for reporting a missing
	// reason at the annotation, not the statement).
	Pos token.Pos
}

// FindAnnotation looks for `//nezha:<check>-ok ...` attached to the
// statement starting at pos: either trailing on the same source line or
// alone on the line directly above. file must be the syntax tree
// containing pos.
func FindAnnotation(fset *token.FileSet, file *ast.File, pos token.Pos, check string) Annotation {
	if file == nil {
		return Annotation{}
	}
	marker := "nezha:" + check + "-ok"
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // a /* */ block is never an annotation
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, marker)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue // e.g. nezha:nondeterminism-okay
			}
			cline := fset.Position(c.Pos()).Line
			if cline != line && cline != line-1 {
				continue
			}
			return Annotation{Found: true, Reason: strings.TrimSpace(rest), Pos: c.Pos()}
		}
	}
	return Annotation{}
}

// reasonlessKey marks, in Pass.Shared, an annotation already reported for
// its missing reason.
type reasonlessKey struct{ pos token.Pos }

// Suppressed reports whether a //nezha:<check>-ok annotation covers the
// statement at pos. An annotation without a reason still suppresses the
// finding, but is itself reported, once however many findings it covers.
func Suppressed(pass *analysis.Pass, pos token.Pos, check string) bool {
	ann := FindAnnotation(pass.Fset, pass.FileFor(pos), pos, check)
	if !ann.Found {
		return false
	}
	if k := (reasonlessKey{ann.Pos}); ann.Reason == "" && pass.Shared[k] == nil {
		pass.Shared[k] = true
		pass.Reportf(ann.Pos, "nezha:%s-ok annotation needs a reason", check)
	}
	return true
}
