// Package detsource_test holds the ambient-entropy corpus of dettaint's
// zero-hop case: clock, global rand and environment reads in a critical
// package.
package detsource_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/lint"
	"github.com/nezha-dag/nezha/internal/lint/analysis/analysistest"
	"github.com/nezha-dag/nezha/internal/lint/dettaint"
)

func TestDetsource(t *testing.T) {
	// Package a is critical (flagged), package b is not (silent).
	lint.CriticalPackages = append(lint.CriticalPackages, "a")
	analysistest.Run(t, analysistest.TestData(), dettaint.Analyzer, "a", "b")
}
