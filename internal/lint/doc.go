// Package lint is the home of nezha-vet: a suite of repo-specific static
// analyzers enforcing invariants that generic tooling (go vet,
// staticcheck) cannot know about. The dynamic defenses — the differential
// harness (internal/check), the fuzz targets, the chaos sweeps
// (internal/chaos) — catch these bugs probabilistically, seed by seed;
// the analyzers move them to "cannot merge".
//
// The suite (one package per analyzer, each with its own doc.go):
//
//	dettaint        flow-sensitive, interprocedural taint: nondeterministic
//	                ordering/values must not reach consensus-critical sinks
//	                (rlp.Encode/Append*, Trie.Update/Put/Delete, Recorder.Emit)
//	                anywhere in the tree; diagnostics carry the source→sink
//	                path. In determinism-critical packages (CriticalPackages)
//	                every source is reported where it occurs: unsorted map
//	                ranges, multi-way selects, time.Now, global math/rand,
//	                os.Getenv
//	lockorder       global mutex-acquisition-order graph is acyclic; no
//	                same-family re-acquisition while held; no lock held
//	                across a failpoint site or a channel send
//	registry        failpoint names and flight-recorder kinds registered in
//	                internal/fail/names.go and internal/journal/names.go;
//	                arming helpers confined to tests and the harnesses; no
//	                emits inside determinism-critical packages
//	metricshygiene  literal nezha_[a-z0-9_]+ metric names, no constructors
//	                in loops
//
// dettaint and lockorder run on the CFG/dataflow layer
// (internal/lint/analysis/cfg, whose Summarize is their one bottom-up
// summary driver and Forward their one fixpoint driver) and compose
// across packages through facts (DESIGN.md §16);
// the other two are single-pass syntactic walks.
//
// Four test-only packages hold corpora of the merged analyzers, each in
// its own test binary so a name it marks critical stays its own:
// detmap and detsource (dettaint's zero-hop unordered-iteration and
// ambient-entropy cases), failpoint and journalhygiene (registry's
// "fail" and "journal" rows).
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
// where <check> is the invariant family and <reason> is mandatory prose
// explaining why this site is safe — an annotation without a reason is
// itself a diagnostic (Suppressed reports it). The families:
//
//	nondeterminism  dettaint's zero-hop findings in a critical package
//	dettaint        dettaint's source→sink flows
//	lockorder       lockorder's cycle edges and nested acquisitions
//	locksafe        lockorder's held-across-a-failpoint-or-send findings
//
// registry and metricshygiene accept no annotations: registering a name
// or renaming a metric is always the smaller diff. Grep for
// `nezha:.*-ok` to audit every exception in the tree.
//
// # Adding an analyzer
//
// First ask whether the invariant is a new row in an existing analyzer's
// table (a dettaint source or sink, a registry package) or a new use of
// a dataflow it already runs (lockorder's held set): that is how the
// suite stays four analyzers. Otherwise:
//
// 1. Create internal/lint/<name>/ with three files, <name> lower-case
// letters only (CI's problem matcher reads it from the `[name]` tag):
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
// 2. Put positive and negative cases under testdata/src/<pkg>/ with
// `// want `+"`regexp`"+` comments on the lines that must be flagged.
// The corpus loads like the tree: analysistest runs analysis.Load with
// testdata as a GOPATH (module mode off), then analysis.Run, so the
// corpus must compile, may import the standard library and its sibling
// testdata packages (which arrive through export data, their facts
// keyed as in nezha-vet ./...), and runs in dependency order whatever
// order the test lists it in. Stub any nezha package the analyzer keys
// on (fail, metrics) as a sibling testdata package. A test that appends
// to CriticalPackages marks that name for the whole test binary, so give
// every corpus its own package name.
//
// 3. Add the Analyzer to the analyzers list in cmd/nezha-vet/main.go and
// list it in this file, TESTING.md (tier 0), and README.md. Flow
// analyzers order their summaries with cfg.Summarize and solve their
// dataflow with cfg.Forward; escape hatches go through Suppressed.
//
// Keep analyzers pass-pure (no globals mutated across packages), report
// through pass.Report/Reportf only, and prefer a types.Info lookup over a
// syntactic guess — the loader hands every pass full type information.
package lint
