// Package journalhygiene_test holds the corpus of the registry analyzer's
// "journal" row: journal kinds and Emit in critical packages.
package journalhygiene_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/lint"
	"github.com/nezha-dag/nezha/internal/lint/analysis/analysistest"
	"github.com/nezha-dag/nezha/internal/lint/registry"
)

func TestJournalHygiene(t *testing.T) {
	// journal:            a clean registry (negative case for checkRegistry).
	// journalbad/journal: every registry violation.
	// emits:              emit sites, good and bad.
	// crit:               made determinism-critical below; Emit is banned.
	lint.CriticalPackages = append(lint.CriticalPackages, "crit")
	analysistest.Run(t, analysistest.TestData(), registry.Analyzer,
		"journal", "journalbad/journal", "emits", "crit")
}
