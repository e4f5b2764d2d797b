package journal

// Kind identifies a journal event type. Kinds are named "<area>/<event>"
// in lower-case (hyphens inside a segment), and every kind emitted
// anywhere in the tree must be one of the constants below: nezha-vet's
// registry analyzer (internal/lint/registry) rejects Emit
// calls whose kind is not a registered constant, duplicate registrations,
// and Kind constants declared outside this file. The inventory doubles as
// the reviewable surface of "what the flight recorder can see".
type Kind string

// The registry. One constant per event type, grouped by the layer that
// emits it. Add new kinds here first; the vet suite fails the build
// otherwise.
//
// Kinds marked deterministic (see deterministicKinds below) carry only
// replica-deterministic payloads: two honest nodes processing the same
// epoch must emit byte-identical events for them, which is what lets
// Diff align journals across nodes. Everything else is context — timing,
// sync traffic, MVCC generations — that explains a divergence but cannot
// itself be compared across replicas.
const (
	// node: epoch pipeline outcomes (internal/node).
	NodeEpochCommit   Kind = "node/epoch-commit"   // epoch finalized: root fold, committed, aborted, txs
	NodeBlockDiscard  Kind = "node/block-discard"  // validation dropped a block: hash fold
	NodeEpochAssembly Kind = "node/epoch-assembly" // epoch composition feeding the scheduler: blocks, txs, block/tx-order digests
	NodeRecoveryAudit Kind = "node/recovery-audit" // post-restore self-audit passed: epochs, folded re-derived assembly digests, root fold
	NodeStageDone     Kind = "node/stage-done"     // one pipeline stage finished: stage name, tasks

	// sched: concurrency-control phase outputs (emitted by the node's
	// schedule stage — the scheduler itself is determinism-critical code
	// the observer must stay out of).
	SchedGroups Kind = "sched/groups" // commit-group layout: count, rescued, first/last-tx digest

	// sync: the self-healing block syncer's state machine (internal/node).
	SyncRequest  Kind = "sync/request"  // MsgGetBlocks sent: peer, from-height, resync flag
	SyncResponse Kind = "sync/response" // MsgBlocks ingested: peer, accepted, more flag
	SyncTimeout  Kind = "sync/timeout"  // outstanding request hit its deadline: peer
	SyncDemote   Kind = "sync/demote"   // peer demoted after consecutive failures
	SyncResync   Kind = "sync/resync"   // full resync from height 0 armed

	// state: the MVCC epoch protocol, observed at the statedb call sites
	// (internal/mvcc is determinism-critical; internal/statedb is not).
	StateReserve   Kind = "state/reserve"   // commit reserved its write keys: count
	StateCommit    Kind = "state/commit"    // trie flush done: writes, root fold
	StateRollback  Kind = "state/rollback"  // failed flush unwound staged versions
	StateWatermark Kind = "state/watermark" // GC watermark advanced: folded versions

	// chaos: fault arming and lifecycle, written into the target node's
	// journal by the harness (internal/chaos).
	ChaosFault   Kind = "chaos/fault"   // a fault armed against this node: kind, site
	ChaosKill    Kind = "chaos/kill"    // the harness killed this node
	ChaosRestart Kind = "chaos/restart" // this node restarted from disk
)

// deterministicKinds marks the kinds whose payloads must be identical on
// every honest replica for the same epoch — the alignment keys Diff uses.
// A kind is only promoted here when every field it carries derives from
// the epoch's content, never from timing, peer choice, or local restart
// history (MVCC generations reset on restart, so state/* stays out, and
// node/recovery-audit stays out because only nodes that restarted emit it).
var deterministicKinds = map[Kind]bool{
	NodeEpochCommit:   true,
	NodeBlockDiscard:  true,
	NodeEpochAssembly: true,
	SchedGroups:       true,
}

// Deterministic reports whether a kind's payload is replica-deterministic.
func Deterministic(k Kind) bool { return deterministicKinds[k] }
