// Package detmap_test holds the unordered-iteration corpus of dettaint's
// zero-hop case: map ranges and multi-case selects in a critical package.
package detmap_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/lint"
	"github.com/nezha-dag/nezha/internal/lint/analysis/analysistest"
	"github.com/nezha-dag/nezha/internal/lint/dettaint"
)

func TestDetmap(t *testing.T) {
	// Package a is critical (flagged), package b is not (silent).
	lint.CriticalPackages = append(lint.CriticalPackages, "a")
	analysistest.Run(t, analysistest.TestData(), dettaint.Analyzer, "a", "b")
}
