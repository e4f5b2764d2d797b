// Package lint is the home of nezha-vet: a suite of repo-specific static
// analyzers enforcing invariants that generic tooling (go vet,
// staticcheck) cannot know about. The dynamic defenses — the differential
// harness (internal/check), the fuzz targets, the chaos sweeps
// (internal/chaos) — catch these bugs probabilistically, seed by seed;
// the analyzers move them to "cannot merge".
//
// The suite (one package per analyzer, each with its own doc.go):
//
//	detmap          unordered map ranges / multi-way selects in
//	                determinism-critical packages (CriticalPackages)
//	detsource       time.Now, global math/rand, os.Getenv in those packages
//	dettaint        flow-sensitive, interprocedural taint: nondeterministic
//	                ordering/values must not reach consensus-critical sinks
//	                (rlp.Encode/Append*, Trie.Update/Put/Delete, Recorder.Emit) anywhere
//	                in the tree; diagnostics carry the source→sink path
//	failpoint       failpoint names registered in internal/fail/names.go;
//	                arming helpers confined to tests and internal/chaos
//	journalhygiene  flight-recorder kinds registered in
//	                internal/journal/names.go; no emits inside
//	                determinism-critical packages
//	lockorder       global mutex-acquisition-order graph is acyclic; no
//	                same-family re-acquisition while held
//	metricshygiene  literal nezha_[a-z0-9_]+ metric names, no constructors
//	                in loops
//	locksafe        no locks held across failpoint sites or channel sends
//
// dettaint and lockorder run on the CFG/dataflow layer
// (internal/lint/analysis/cfg) and compose across packages through facts
// (DESIGN.md §16); the rest are single-pass syntactic walks.
//
// This package holds what the analyzers share: the determinism-critical
// package set (detset.go) and the annotation parser (annotation.go). The
// framework they run on is internal/lint/analysis, a self-contained
// miniature of golang.org/x/tools/go/analysis (this repo has no
// third-party dependencies, by policy).
//
// # Annotation grammar
//
// Some invariants have provably-benign exceptions. The escape hatch is a
// line comment, on the flagged statement's line or the line directly
// above it:
//
//	//nezha:<check>-ok <reason>
//
// where <check> is the invariant family ("nondeterminism" for detmap and
// detsource, "dettaint", "lockorder", or "locksafe") and <reason> is
// mandatory prose explaining why this site is safe — an annotation
// without a reason is itself a diagnostic. failpoint, journalhygiene,
// and metricshygiene accept no annotations: registering a name or
// renaming a metric is always the smaller diff. Grep for `nezha:.*-ok`
// to audit every exception in the tree.
//
// # Adding an analyzer
//
// 1. Create internal/lint/<name>/ with three files:
//
//	doc.go      // the invariant, what is flagged, the escape hatch if any
//	<name>.go   // package <name>; var Analyzer = &analysis.Analyzer{
//	            //     Name: "<name>", Doc: "one-liner", Run: run,
//	            // }
//	            // func run(pass *analysis.Pass) (any, error) {
//	            //     for _, file := range pass.Files {
//	            //         ast.Inspect(file, func(n ast.Node) bool { ... })
//	            //     }
//	            //     return nil, nil
//	            // }
//	<name>_test.go  // analysistest.Run(t, analysistest.TestData(),
//	                //     <name>.Analyzer, "a")
//
// 2. Put positive and negative cases under testdata/src/a/ with
// `// want `+"`regexp`"+` comments on the lines that must be flagged;
// stub any nezha package the analyzer keys on (fail, metrics) as a
// sibling testdata package so the test is hermetic.
//
// 3. Register the Analyzer in cmd/nezha-vet/main.go and list it in this
// file, TESTING.md (tier 0), and README.md.
//
// Keep analyzers pass-pure (no globals mutated across packages), report
// through pass.Report/Reportf only, and prefer a types.Info lookup over a
// syntactic guess — the loader hands every pass full type information.
package lint
