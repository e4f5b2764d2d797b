// Package lockorder implements the nezha-vet flow analyzer that builds
// the program-wide mutex-acquisition-order graph and reports the three
// shapes that wedge a node under load:
//
//   - lock-order cycles: goroutine 1 acquires A then B, goroutine 2
//     acquires B then A (the classic ABBA). Each function contributes
//     its acquisition edges — "B taken while A held" — to one global
//     graph; a cycle in that graph is the finding, reported once with
//     every edge's acquisition site attached (Diagnostic.Path).
//   - same-family nested acquisition: taking a lock family that is
//     already held. For sync.Mutex that is an unconditional self-
//     deadlock; under the per-shard collapse (below) it flags nested
//     shard locks, which need an explicit order to be safe.
//   - a lock held across a failpoint site (fail.Hit/HitTag/Drop) or a
//     channel send (the locksafe family). A disarmed failpoint is one
//     atomic load, so holding a lock across it looks free; armed with a
//     delay spec it holds the lock for the whole injected sleep, and
//     armed with a panic spec it abandons the lock unless every caller
//     recovers. A send under a lock blocks on a slow receiver while the
//     lock starves everyone else. -race sees none of this: nothing
//     races, it just wedges. The fail package itself is exempt (it
//     manages its own mutex around its own sites).
//
// # Lock families
//
// Locks are grouped by declaration site, not instance:
//
//	s.mu on type S     -> pkg.S.mu
//	shards[i].mu       -> pkg.Shard.mu   (every shard is one family)
//	embedded sync type -> pkg.Pool.Mutex
//	package-level var  -> pkg.mu
//	function-local var -> pkg.fn.mu
//
// The per-shard collapse trades precision for coverage: striped locks
// (mvcc version shards, kvstore buckets) become one family, so an
// ordering protocol between two shards of the same stripe shows up as
// a same-family nested acquisition rather than disappearing into
// instance-land. Deliberately-ordered nesting (locking shard i then
// shard j with i < j) is annotated, not restructured.
//
// # Mechanics
//
// Classification is by the callee's type — methods named Lock on
// non-sync types are ignored; sync.Mutex/RWMutex Lock/RLock/Unlock/
// RUnlock update a held-set dataflow over the function's CFG
// (internal/lint/analysis/cfg). The defer chain applies deferred
// unlocks at exit, so `mu.Lock(); defer mu.Unlock()` holds mu through
// the whole body, including early returns. The same sweep collects the
// summary fact each function exports (LockFact): every family it may
// acquire, transitively through static callees, which cfg.Summarize
// has summarized first; a call made while holding H contributes
// H -> (callee's acquisitions) edges, which is what makes the graph
// interprocedural and cross-package. `go` statements and FuncLit bodies
// contribute nothing to the spawning function (a goroutine starts with
// nothing held); literal bodies are analyzed as their own functions.
// The locksafe check reads the same per-block held set, so a lock
// released on one branch (`if c { mu.Unlock(); return }`) is still held
// on the path that falls through.
//
// RLock counts as an acquisition for ordering edges (reader/writer
// ABBA deadlocks are real); RLock-after-RLock of one family is not
// reported (shared mode is re-entrant across goroutines in practice,
// and the writer-starvation variant is too timing-dependent to flag).
// TryLock is ignored. Pointer aliases (m := &s.mu; m.Lock()) fall out
// of the family resolution and are not tracked.
//
// # Escape hatches
//
//	shards[j].mu.Lock() //nezha:lockorder-ok j > i enforces the shard order
//
// at an acquisition (or edge) site suppresses that site's finding or
// excludes its edge from the cycle graph. Where holding the lock through
// a failpoint is the simulated behavior (a WAL delay modeling a slow
// fsync that really does block other appenders), the site takes
//
//	if err := fail.HitTag(fail.KVWALSync, w.tag); err != nil { //nezha:locksafe-ok delay models a slow fsync holding the append lock
//
// Either way a missing reason is itself reported.
package lockorder
