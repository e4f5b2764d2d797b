package fail

// Name identifies a failpoint site. Sites are named "<package>/<site>" in
// lower-case (hyphens inside a segment), and every name used anywhere in
// the tree must be one of the constants below: nezha-vet's registry
// analyzer (internal/lint/registry) rejects call sites whose name is not
// a registered constant, duplicate registrations, and Name constants
// declared outside this file. Keeping the full inventory in one block is
// the point — it is the reviewable surface of "what can chaos break".
type Name string

// The registry. One constant per site, grouped by the package that hits
// it. Add new sites here first; the vet suite fails the build otherwise.
const (
	// BenchDisarmed is hit only by the root benchmark suite to measure the
	// disarmed fast path (one atomic load).
	BenchDisarmed Name = "bench/disarmed"

	// kvstore: the durability path (internal/kvstore).
	KVWALAppend  Name = "kvstore/wal-append"  // WAL record append, before the buffered write
	KVWALSync    Name = "kvstore/wal-sync"    // WAL fsync
	KVWALReplay  Name = "kvstore/wal-replay"  // WAL record replay during recovery, per intact record
	KVApply      Name = "kvstore/apply"       // memtable apply of a committed batch
	KVFlush      Name = "kvstore/flush"       // memtable -> SSTable flush
	KVCompact    Name = "kvstore/compact"     // SSTable compaction
	KVTableWrite Name = "kvstore/table-write" // SSTable file written under its temp name, before the rename

	// node: epoch pipeline handoffs and the persistence path (internal/node).
	NodeSubmit        Name = "node/submit"         // transaction submission
	NodePersist       Name = "node/persist"        // epoch persistence, before the store write
	NodePersistDone   Name = "node/persist-done"   // epoch persistence, after the commit point
	NodeRestore       Name = "node/restore"        // persisted-state restore at node construction
	NodeDivergeRoot   Name = "node/diverge-root"   // corrupt the reported epoch root (journal forensics meta-tests)
	NodeStageValidate Name = "node/stage-validate" // handoff into the validate stage
	NodeStageExecute  Name = "node/stage-execute"  // handoff into the execute stage
	NodeStageSchedule Name = "node/stage-schedule" // handoff into the schedule stage
	NodeStageCommit   Name = "node/stage-commit"   // handoff into the commit stage
	NodeStageSerial   Name = "node/stage-serial"   // handoff into the serial-baseline stage
	NodeStageSeal     Name = "node/stage-seal"     // inside the commit stage, between publish (writes readable as an MVCC generation) and seal (trie, root, store batch)

	// p2p: the in-process network fabric (internal/p2p).
	P2PDrop  Name = "p2p/drop"  // message delivery drop decision
	P2PStall Name = "p2p/stall" // delivery stall (delay specs)

	// mempool: the ingestion front end (internal/mempool).
	MempoolAdmit Name = "mempool/admit" // transaction admission, before any pool mutation
	MempoolEvict Name = "mempool/evict" // capacity eviction decision on a full shard
)

// AllNames returns every registered failpoint name in registry order. The
// crash-point sweep (internal/chaos) iterates it so a newly registered
// site is swept — or explicitly exempted with a reason — automatically;
// TestAllNamesCoversRegistry keeps this list in sync with the constants
// above.
func AllNames() []Name {
	return []Name{
		BenchDisarmed,
		KVWALAppend,
		KVWALSync,
		KVWALReplay,
		KVApply,
		KVFlush,
		KVCompact,
		KVTableWrite,
		NodeSubmit,
		NodePersist,
		NodePersistDone,
		NodeRestore,
		NodeDivergeRoot,
		NodeStageValidate,
		NodeStageExecute,
		NodeStageSchedule,
		NodeStageCommit,
		NodeStageSerial,
		NodeStageSeal,
		P2PDrop,
		P2PStall,
		MempoolAdmit,
		MempoolEvict,
	}
}
