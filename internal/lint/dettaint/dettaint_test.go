package dettaint_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/lint/analysis/analysistest"
	"github.com/nezha-dag/nezha/internal/lint/dettaint"
)

func TestDettaint(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), dettaint.Analyzer,
		"rlp", "journal", "mpt", "helper", "flow", "mempool", "ok/mempool")
}

// TestDettaintDependentsFirst lists the corpus dependents-first. The
// packages still run in dependency order, as under nezha-vet ./..., so
// every cross-package finding arrives.
func TestDettaintDependentsFirst(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), dettaint.Analyzer,
		"ok/mempool", "mempool", "flow", "helper", "mpt", "journal", "rlp")
}
