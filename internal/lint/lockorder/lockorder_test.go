package lockorder_test

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/lint/analysis/analysistest"
	"github.com/nezha-dag/nezha/internal/lint/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "ab", "rw")
}

// TestLocksafe covers the locksafe family: channel sends and failpoint
// hits while the held set is non-empty.
func TestLocksafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockorder.Analyzer, "fail", "a")
}
