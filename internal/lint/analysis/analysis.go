// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis: just enough framework to write the
// nezha-vet analyzers (internal/lint/...) without a module dependency on
// x/tools, which this repo deliberately avoids (zero third-party deps).
//
// The API mirrors the x/tools types field-for-field where we use them —
// Analyzer, Pass, Diagnostic, SuggestedFix, TextEdit, and (since the
// flow analyzers landed) object Facts — so migrating an analyzer onto
// the real framework later is a change of import path, not a rewrite.
// What is intentionally missing: Requires/ResultOf (no analyzer-to-
// analyzer composition) and flags per analyzer. Two deliberate
// extensions go beyond x/tools: Analyzer.Finish, a whole-program hook
// for analyzers that aggregate state across every package (lockorder's
// global acquisition graph), and Diagnostic.Path, a multi-position
// explanation trail (dettaint's source→sink chain, lockorder's cycle).
// Loading is done by shelling out to `go list -export` and type-checking
// each target package from source against the build cache's export data
// (see Load); `go list -deps` emits dependencies before dependents, so
// passes run in dependency order and facts flow bottom-up. The
// analyzers' tests (analysistest) load and run through the same Load and
// Run, with testdata as a GOPATH.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the short command-line identifier ("dettaint").
	Name string
	// Doc is the one-paragraph description shown by nezha-vet -list; the
	// full invariant lives in the analyzer package's doc.go.
	Doc string
	// Run applies the check to one package. The return value is unused
	// (kept for x/tools signature compatibility); findings are delivered
	// through pass.Report.
	Run func(*Pass) (any, error)
	// FactTypes lists the fact types the analyzer exports or imports
	// (documentation and a registration sanity check; each entry must be
	// a pointer).
	FactTypes []Fact
	// Finish, if non-nil, runs once after Run has seen every package —
	// the hook for whole-program verdicts that no single package can
	// decide (lockorder's cycle detection over the global acquisition
	// graph). Its Pass carries Fset, Shared, and Report; Files, Pkg, and
	// TypesInfo are nil.
	Finish func(*Pass) (any, error)
}

// Pass hands an Analyzer one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Shared is per-analyzer scratch state threaded through every pass of
	// one Run, including Finish — where an analyzer accumulates whole-
	// program structures (lockorder's edge set). Never shared between
	// analyzers or between Runs.
	Shared map[any]any

	// facts is the run's fact store (see facts.go); nil for standalone
	// passes constructed outside Run.
	facts *factStore
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FileFor returns the syntax tree containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional
	Message string
	// Path is an optional multi-position explanation trail, oldest hop
	// first: dettaint attaches the interprocedural source→sink chain,
	// lockorder the edges of a deadlock cycle. The driver prints each
	// step indented under the finding and carries them in -json output.
	Path []PathStep
	// SuggestedFixes are mechanical rewrites nezha-vet -fix can apply.
	SuggestedFixes []SuggestedFix
}

// PathStep is one hop of a Diagnostic.Path.
type PathStep struct {
	Pos     token.Pos
	Message string
}

// SuggestedFix is one alternative mechanical repair for a diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}
