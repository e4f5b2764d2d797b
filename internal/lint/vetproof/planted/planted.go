// Package planted holds one deliberate instance of each bug class the
// nezha-vet CI gate exists to catch (with internal/core's unordered map
// range). This module is OUTSIDE the parent module (its own go.mod), so
// `go run ./cmd/nezha-vet ./...` at the repo root never sees it; the CI
// meta-step runs the built binary in this directory and requires a
// nonzero exit naming every planted class. If an analyzer regression
// ever lets these through, the gate — not the tree — fails loudly.
package planted

import (
	"sync"

	"nezha.invalid/vetproof/fail"
	"nezha.invalid/vetproof/helper"
	"nezha.invalid/vetproof/rlp"
)

// Leak feeds map keys to the canonical encoder in iteration order: the
// dettaint planted bug (nondeterministic ordering into an encoding sink).
func Leak(m map[string]int) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return rlp.Encode(keys)
}

// LeakVia encodes keys that another package ranged out of a map: the
// cross-package dettaint planted bug, visible only through helper.Keys's
// summary fact.
func LeakVia(m map[string]int) []byte {
	return rlp.Encode(helper.Keys(m))
}

type a struct{ mu sync.Mutex }

type b struct{ mu sync.Mutex }

// LockAB and LockBA acquire the two families in opposite orders: the
// lockorder planted bug (ABBA deadlock cycle).
func LockAB(x *a, y *b) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock()
	defer y.mu.Unlock()
}

func LockBA(x *a, y *b) {
	y.mu.Lock()
	defer y.mu.Unlock()
	x.mu.Lock()
	defer x.mu.Unlock()
}

// HitHeld hits a failpoint while holding x.mu: the locksafe planted bug
// (armed with a delay spec, the site would stall every waiter on x.mu).
func HitHeld(x *a, site fail.Name) {
	x.mu.Lock()
	defer x.mu.Unlock()
	_ = fail.Hit(site)
}
