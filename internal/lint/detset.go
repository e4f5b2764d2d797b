package lint

import "strings"

// CriticalPackages are the determinism-critical packages: every replica
// must derive byte-identical results from them given the same input, so
// dettaint holds them to a stricter standard: every source is reported
// where it occurs (no unordered iteration, no ambient entropy), not only
// where it reaches a sink. Entries are import-path suffixes matched on a
// path-segment boundary (PathIs).
//
// internal/check is here because the differential harness's generator and
// driver must replay bit-exactly from a seed — a nondeterministic test
// harness cannot minimize its own failures.
//
// Tests may append their testdata package paths.
var CriticalPackages = []string{
	"internal/core",
	"internal/cg",
	"internal/graph",
	"internal/mpt",
	"internal/rlp",
	"internal/check",
	"internal/mvcc",
	"internal/occda",
	// The mempool's assembly/eviction order and the flight recorder's
	// deterministic journal kinds are consensus-visible (DESIGN.md §10,
	// §16): both hold replicated ordering contracts, so they get the
	// same syntactic screening the state core does.
	"internal/mempool",
	"internal/journal",
}

// IsCritical reports whether the import path names a determinism-critical
// package.
func IsCritical(path string) bool {
	for _, s := range CriticalPackages {
		if PathIs(path, s) {
			return true
		}
	}
	return false
}

// PathIs reports whether the import path is suffix or ends in "/"+suffix:
// how the analyzers recognise a package by name in the tree and in their
// hermetic testdata stubs alike.
func PathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
