package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"
)

// Finding pairs a diagnostic with where it came from. Fset is carried
// directly (not via a Package) because Finish-phase findings belong to
// no single package.
type Finding struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	PkgPath  string // "" for whole-program (Finish) findings
	Diagnostic
}

// Run applies every analyzer to every package — in the order Load
// returned them, which `go list -deps` guarantees is dependency order,
// so facts exported while analyzing a package are visible to every
// dependent package's pass — then runs each analyzer's Finish hook, and
// returns the findings sorted by file position. Analyzer errors (not
// findings — crashes) are returned as an error.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	facts := newFactStore()
	shared := map[*Analyzer]map[any]any{}
	for _, a := range analyzers {
		shared[a] = map[any]any{}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Shared:    shared[a],
				facts:     facts,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{Analyzer: a, Fset: pkg.Fset, PkgPath: pkg.PkgPath, Diagnostic: d})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset // Load shares one fset across all packages
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Shared: shared[a], facts: facts}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{Analyzer: a, Fset: fset, Diagnostic: d})
		}
		if _, err := a.Finish(pass); err != nil {
			return nil, fmt.Errorf("%s: finish: %v", a.Name, err)
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := findings[i].Fset.Position(findings[i].Pos), findings[j].Fset.Position(findings[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return findings, nil
}

// jsonFinding is the -json wire form of one finding: flat location
// fields for the problem-matcher and tooling, plus the explanation path.
type jsonFinding struct {
	Analyzer string     `json:"analyzer"`
	File     string     `json:"file"`
	Line     int        `json:"line"`
	Col      int        `json:"col"`
	Message  string     `json:"message"`
	Path     []jsonStep `json:"path,omitempty"`
}

type jsonStep struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Message string `json:"message"`
}

// writeJSON prints findings as one JSON array on w-equivalent stdout.
func writeJSON(findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		pos := f.Fset.Position(f.Pos)
		jf := jsonFinding{
			Analyzer: f.Analyzer.Name,
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  f.Message,
		}
		for _, s := range f.Path {
			sp := f.Fset.Position(s.Pos)
			jf.Path = append(jf.Path, jsonStep{File: sp.Filename, Line: sp.Line, Message: s.Message})
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Main is the multichecker driver behind cmd/nezha-vet: parse flags, load
// the named packages, run the analyzers, print findings GNU-style, and
// exit 0 (clean), 1 (findings), or 2 (usage or load failure).
func Main(analyzers ...*Analyzer) {
	fs := flag.NewFlagSet("nezha-vet", flag.ExitOnError)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source tree")
	jsonOut := fs.Bool("json", false, "print findings as a JSON array (file, line, analyzer, message, path)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: nezha-vet [flags] [package patterns]\n\n"+
			"Runs the repo-specific invariant analyzers (see internal/lint) over the\n"+
			"named packages (default ./...). Exits 1 if any invariant is violated.\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "nezha-vet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}

	pkgs, err := Load("", nil, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nezha-vet: %v\n", err)
		os.Exit(2)
	}
	findings, err := Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nezha-vet: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := writeJSON(findings); err != nil {
			fmt.Fprintf(os.Stderr, "nezha-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: [%s] %s\n", f.Fset.Position(f.Pos), f.Analyzer.Name, f.Message)
			for _, s := range f.Path {
				fmt.Printf("\t%s: %s\n", f.Fset.Position(s.Pos), s.Message)
			}
			for _, sf := range f.SuggestedFixes {
				fmt.Printf("\tfix available: %s (nezha-vet -fix)\n", sf.Message)
			}
		}
	}
	if *fix {
		fixed, err := Fixed(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nezha-vet: applying fixes: %v\n", err)
			os.Exit(2)
		}
		for name, src := range fixed {
			if err := os.WriteFile(name, src, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "nezha-vet: applying fixes: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("%s: fixed\n", name)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// Fixed splices the first suggested fix of every finding into its file
// and returns each touched file's new contents, rightmost edit first so
// earlier offsets stay valid. Overlapping edits are an error. nezha-vet
// -fix writes the result back; analysistest compares it with the
// .golden files.
func Fixed(findings []Finding) (map[string][]byte, error) {
	type edit struct {
		start, end int
		text       []byte
	}
	byFile := map[string][]edit{}
	for _, f := range findings {
		if len(f.SuggestedFixes) == 0 {
			continue
		}
		for _, te := range f.SuggestedFixes[0].TextEdits {
			start, end := f.Fset.Position(te.Pos), f.Fset.Position(te.End)
			if start.Filename != end.Filename {
				return nil, fmt.Errorf("edit spans files (%s, %s)", start.Filename, end.Filename)
			}
			byFile[start.Filename] = append(byFile[start.Filename], edit{start.Offset, end.Offset, te.NewText})
		}
	}
	fixed := make(map[string][]byte, len(byFile))
	for name, edits := range byFile {
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		prev := len(src) + 1
		for _, e := range edits {
			if e.end > prev {
				return nil, fmt.Errorf("%s: overlapping suggested fixes", name)
			}
			prev = e.start
			src = append(src[:e.start], append(append([]byte{}, e.text...), src[e.end:]...)...)
		}
		fixed[name] = src
	}
	return fixed, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
