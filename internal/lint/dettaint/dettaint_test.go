package dettaint_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/lint/analysis/analysistest"
	"github.com/nezha-dag/nezha/internal/lint/dettaint"
)

func TestDettaint(t *testing.T) {
	// Dependency packages listed first, as the real checker's `go list
	// -deps` ordering does, so summaries flow bottom-up.
	analysistest.Run(t, analysistest.TestData(), dettaint.Analyzer,
		"rlp", "journal", "mpt", "helper", "flow", "mempool", "ok/mempool")
}
