// Package registry enforces the name-registry discipline of the two
// packages whose string constants are contracts: internal/fail (the chaos
// harness can only break what it can name) and internal/journal (the diff
// forensics can only align what both nodes name identically). Each keeps
// its full inventory in one reviewable file, and every call site must use
// it. One table row per package drives the same checks:
//
//   - Inside the package: every fail.Name / journal.Kind constant must be
//     declared in names.go (the central registry), match the grammar
//     ^[a-z0-9-]+(/[a-z0-9-]+)*$, and be unique — two constants with one
//     string value would silently alias two sites (or two event kinds,
//     corrupting diff alignment).
//   - Everywhere else: the name passed to fail.Hit, HitTag, Drop, Enable
//     and Disable, and the kind passed to (*journal.Recorder).Emit, must
//     be a registered constant (or a compile-time string equal to one).
//     Non-constant names are allowed only when already of the registered
//     type — and every fail.Name(...) / journal.Kind(...) conversion from
//     a literal is checked against the registry, so a dynamic name can
//     only be laundered from registered values.
//   - Armed-only helpers (fail.Enable, Disable, Reset, Seed) must not
//     appear outside _test.go files or the fault-injection harnesses
//     (internal/chaos, internal/stress): production code hits
//     failpoints, it never arms them. nezha-vet analyzes non-test files,
//     so _test.go usage is implicitly allowed.
//   - journal.Emit must not appear in determinism-critical packages
//     (lint.CriticalPackages): the recorder takes a mutex on the armed
//     path, so an emit inside the scheduler or MVCC core could reorder
//     the very interleavings it exists to observe. Instrumentation lives
//     at those packages' call sites instead (see internal/statedb).
//
// There is deliberately no annotation escape hatch: an unregistered name
// is never benign — registering it is a one-line diff.
package registry
