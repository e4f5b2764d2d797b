// Command nezha-vet runs the repo-specific invariant analyzers over the
// tree — the static half of the correctness story whose dynamic half is
// the differential harness (nezha-check) and the chaos sweeps
// (nezha-chaos). CI runs it as a required job; run it locally with:
//
//	go run ./cmd/nezha-vet ./...
//	go run ./cmd/nezha-vet -run dettaint,registry ./internal/core
//	go run ./cmd/nezha-vet -fix ./...   # apply mechanical suggested fixes
//
// The analyzers and the invariants they enforce are documented in
// internal/lint (one doc.go per analyzer); the //nezha:<check>-ok
// annotation grammar is in internal/lint/doc.go and DESIGN.md §11.
package main

import (
	"github.com/nezha-dag/nezha/internal/lint/analysis"
	"github.com/nezha-dag/nezha/internal/lint/dettaint"
	"github.com/nezha-dag/nezha/internal/lint/lockorder"
	"github.com/nezha-dag/nezha/internal/lint/metricshygiene"
	"github.com/nezha-dag/nezha/internal/lint/registry"
)

// analyzers is the suite, in -list order. CI's problem matcher reads the
// name in each finding's `[name]` tag, so a name must stay lower-case
// letters only (main_test.go holds it to that).
var analyzers = []*analysis.Analyzer{
	dettaint.Analyzer,
	lockorder.Analyzer,
	registry.Analyzer,
	metricshygiene.Analyzer,
}

func main() {
	analysis.Main(analyzers...)
}
