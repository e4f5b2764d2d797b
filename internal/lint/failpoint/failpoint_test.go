// Package failpoint_test holds the corpus of the registry analyzer's
// "fail" row: failpoint names and the armed-only helpers.
package failpoint_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/lint/analysis/analysistest"
	"github.com/nezha-dag/nezha/internal/lint/registry"
)

func TestFailpoint(t *testing.T) {
	// fail:         a clean registry (negative case for checkRegistry).
	// failbad/fail: every registry violation.
	// hits:         production call sites, good and bad.
	// chaos:        arming allowed, name discipline still enforced.
	analysistest.Run(t, analysistest.TestData(), registry.Analyzer,
		"fail", "failbad/fail", "hits", "chaos")
}
