// Package dettaint implements the nezha-vet flow analyzer that tracks
// nondeterminism interprocedurally from its sources to the sinks where
// it becomes consensus divergence, and reports the sources themselves
// inside the determinism-critical packages.
//
// # Invariant
//
// Every byte that reaches a consensus-critical sink — canonical RLP
// encoding, a state-trie write, a deterministic journal event, the
// ordered result of mempool assembly — must be a pure function of
// replicated inputs. Nondeterminism is fine while it stays local
// (scheduling, caches, metrics); the bug is the flow that carries it
// into replicated state: a source in ANY package whose value is
// laundered through helpers, struct fields, and call chains into a sink.
//
// Nezha's safety argument is stricter still for the packages that derive
// the schedule (lint.CriticalPackages): every replica must compute a
// byte-identical result from the same snapshot (Algorithms 1–2 of the
// paper), so there a source is a finding where it occurs — the zero-hop
// case of the flow, whether or not a sink is in sight:
//
//   - a map range, or a range over maps.Keys/Values/All, unless an
//     in-place sort later kills the ordering it produced (collect, sort,
//     then use — the sanitizer below, read off the same dataflow);
//   - a select with two or more communication cases (the runtime picks
//     a ready one at random);
//   - time.Now/Since/Until, a package-level math/rand function (a seeded
//     *rand.Rand threaded from config passes), os.Getenv/LookupEnv/
//     Environ — referenced, not only called.
//
// A channel range stays a flow-only source: its goroutine-completion
// order is reported when it reaches a sink.
//
// # Taint domain
//
// Two kinds, because their cures differ:
//
//   - ordering taint: deterministic content in nondeterministic order
//     (keys collected by ranging a map, values received in goroutine-
//     completion order). Sorting — or any commutative fold — kills it.
//   - value taint: the content itself is nondeterministic (wall-clock
//     reads, unseeded rand, environment reads, which select case won).
//     Sorting does not help; the value must not reach the sink at all.
//
// Sources: ranging a map or channel, maps.Keys/Values/All, multi-way
// select receives, time.Now/Since/Until, package-level math/rand and
// math/rand/v2 functions (constructors excluded: a *rand.Rand may be
// deterministically seeded), os.Getenv/LookupEnv/Environ.
//
// Sanitizers: in-place sorts (sort.Sort/Slice/Strings/..., slices.Sort*)
// kill ordering taint on their argument; slices.Sorted* return clean
// copies; commutative numeric folds (+= -= *= &= |= ^=) kill ordering
// taint flowing into the accumulator; len/cap are order-insensitive;
// writing into a map kills ordering taint (insertion order does not
// change a map).
//
// # Interprocedural summaries
//
// Each function is analyzed over its CFG (internal/lint/analysis/cfg)
// bottom-up in SCC order (cfg.Summarize; a recursive group takes three
// settling rounds before its reporting pass), producing a summary
// exported as an object
// fact (FnFact): unconditional result taints with their traces, which
// parameters flow into results, and which parameters reach a sink
// inside the function or deeper. `go list -deps` ordering runs
// dependency packages first, so the facts compose across package
// boundaries and a flow like
//
//	node → helper pkg (collects map keys) → rlp.Encode
//
// reports at the outermost tainted call with the full multi-position
// source→sink trail attached (Diagnostic.Path, printed indented by
// nezha-vet and carried in -json output).
//
// # Escape hatches
//
//	stateRoot := r.emitDigest(parts) //nezha:dettaint-ok parts is a canonical singleton
//
// on the flagged line (or the line above) suppresses a flow finding;
// cross-package flows are annotated at the call site in the reporting
// package. A zero-hop finding takes the nondeterminism family instead,
// for a source that provably never feeds the schedule:
//
//	start := time.Now() //nezha:nondeterminism-ok timing only feeds PhaseBreakdown
//	for _, v := range m { //nezha:nondeterminism-ok sum is commutative
//
// Either way an annotation without a reason is itself reported.
//
// # Limits
//
// The analysis is field-insensitive (a struct shares one taint set),
// does not model channel contents or captured closure variables, treats
// comparisons as untainted (implicit/control-dependence flows are out
// of scope), and resolves only static callees — an interface call or
// function value conservatively passes its inputs through to its
// result. Because captured variables are not modeled, a map range inside
// a closure counts as sorted only if the closure itself sorts. These are
// the standard precision/cost trades for a linter that must sweep the
// whole tree in seconds.
package dettaint
