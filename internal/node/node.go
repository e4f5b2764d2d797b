// Package node wires every substrate into the paper's full transaction-
// processing pipeline (§III-B, Fig. 2(b)):
//
//	validation → concurrent speculative execution → concurrency control →
//	group-concurrent commitment
//
// A Node owns an OHIE ledger, a state database, a worker pool, and a
// pluggable concurrency-control scheme (Nezha, the CG baseline, or serial
// execution). Epochs are processed strictly in order; every node processing
// the same epochs independently converges to the same state root — the
// agreement tests assert exactly that.
package node

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/dag"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
)

// Node errors.
var (
	// ErrEpochNotReady is returned when a chain is still missing its
	// block for the requested epoch.
	ErrEpochNotReady = errors.New("node: epoch not ready")
	// ErrEpochOutOfOrder is returned when epochs are processed out of
	// sequence.
	ErrEpochOutOfOrder = errors.New("node: epoch out of order")
)

// Config assembles a node.
type Config struct {
	// Consensus parameterizes the OHIE ledger and PoW checks.
	Consensus consensus.Params
	// Scheduler is the concurrency-control scheme. Nil selects the
	// paper's serial baseline: transactions execute and commit one by
	// one with no speculation.
	Scheduler types.Scheduler
	// Workers sizes the execution/commit pool and the two background runs
	// that overlap the commit (signature prevalidation and the look-ahead
	// execution of the next epoch); 0 means GOMAXPROCS.
	Workers int
	// Contracts maps addresses to MiniVM bytecode. Transactions to other
	// addresses are treated as plain value transfers.
	Contracts map[types.Address][]byte
	// VerifySchedules re-checks every schedule with core.VerifySchedule
	// before committing (a paranoia mode used by tests; adds latency).
	VerifySchedules bool
	// VerifySignatures makes the validation phase check every block
	// transaction's signature (crypto.VerifyTxOnce: a transaction this
	// node's pool or an in-process peer already checked is not verified
	// again); blocks carrying an invalid signature are discarded like
	// blocks with a bad state root.
	VerifySignatures bool
	// GenesisWrites seeds the state before epoch 1 (e.g. initial account
	// balances).
	GenesisWrites []types.WriteEntry
	// ConfirmDepth is how many blocks must sit above an epoch on every
	// chain before the node processes it. 0 suits deterministic
	// single-miner settings; multi-miner networks need >= 1 so that
	// deterministic fork choice converges before epochs finalize.
	ConfirmDepth uint64
	// Persist stores canonical blocks and chain metadata in the node's
	// key-value store after every epoch, and New restores them on
	// reopen — the restart durability a real full node has. Off by
	// default (benchmarks measure the paper's phases, which exclude it).
	Persist bool
	// RetainEpochStats caps how many per-epoch stat records the node's
	// Collector keeps (a ring of the most recent); 0 retains everything,
	// which long-running nodes should avoid. Live /metrics series are
	// unaffected — only the detailed Collector window shrinks.
	RetainEpochStats int
	// SyncBatch caps how many blocks one MsgBlocks response carries
	// (rounded to a whole height window); a truncated response sets
	// Message.More and Message.UpTo so the requester keeps paging. A
	// long-offline joiner would otherwise make its peer serialize the
	// entire chain into one message. 0 means DefaultSyncBatch.
	SyncBatch int
	// PredictReads is no longer consulted. It fed the read-set prefetcher,
	// which the look-ahead run replaced: executing the next epoch early
	// warms the version cache with the reads it really makes. The field
	// stays only because benchmark/ sets it (ROADMAP item 2(a) unpins it).
	PredictReads func(tx *types.Transaction) []types.Key
	// Mempool configures the admission-controlled pool every Miner of this
	// node fronts (internal/mempool). The zero value means the pool's
	// defaults, which bound each sender's queue; a caller that preloads a
	// whole workload lifts the caps it would overrun (ShardCap/SenderCap).
	// The Tag is filled with the node id when empty.
	Mempool mempool.Config
}

// Node is one full node. Public methods are safe for concurrent use.
type Node struct {
	id  string
	cfg Config

	store  kvstore.Store
	ledger *dag.Ledger
	state  *statedb.StateDB
	coll   *metrics.Collector
	// jr is the node's flight recorder (internal/journal): pipeline
	// outcomes, sync transitions, and statedb epoch boundaries append to
	// it whenever journaling is enabled process-wide. Never nil.
	jr *journal.Recorder

	mu        sync.Mutex
	nextEpoch uint64
	// orphans buffers blocks whose ancestry has not arrived yet.
	orphans []*types.Block
	// roots[e] is the state root after processing epoch e; roots[0] is
	// the genesis root. Validation accepts a block whose StateRoot
	// matches the root of a processed epoch below its height.
	roots map[uint64]types.Hash
	// rootEpoch indexes roots the other way: each recorded root → the
	// first epoch that produced it (empty epochs repeat a root), so the
	// root check is one lookup however long the history grows.
	rootEpoch map[types.Hash]uint64
	// preval is the in-flight background signature prevalidation, if any
	// (see pipeline.go).
	preval *prevalidation
	// ahead is the look-ahead run the last commit started for the next
	// epoch, if any (see lookahead.go). Whoever clears the field stops and
	// waits for the run unless an epoch adopts it.
	ahead *lookahead
	// scratch is the epoch scratch ring, slot e&1 epoch e's (scratch.go).
	scratch [2]epochScratch
	// prevMVCC is the last-exported MVCC stats snapshot; the telemetry
	// hook diffs against it so registry counters stay monotonic.
	prevMVCC mvcc.Stats
	// pendingPersist holds an epoch whose in-memory commit succeeded but
	// whose durability write failed (a transient disk error). The state
	// advance cannot be rolled back — re-running the epoch would execute
	// against post-epoch state — so the node instead re-attempts the
	// persist before it processes anything further; until it succeeds the
	// watermark stalls rather than leaving a hole no restart could replay.
	pendingPersist *pendingEpoch
	// tracer, when set, records per-stage spans for Chrome trace-event
	// export (see telemetry.go). Nil means no tracing.
	tracer *metrics.Tracer
}

// New creates a node over the given block/state store.
func New(id string, store kvstore.Store, cfg Config) (*Node, error) {
	if err := cfg.Consensus.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ledger, err := dag.NewLedger(cfg.Consensus.Chains)
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:        id,
		cfg:       cfg,
		store:     store,
		ledger:    ledger,
		coll:      metrics.NewCollector(),
		jr:        journal.For(id),
		nextEpoch: 1,
	}
	n.coll.SetCap(cfg.RetainEpochStats)
	if cfg.Persist {
		restored, err := n.restoreFromStore()
		if err != nil {
			return nil, err
		}
		if restored {
			n.state = statedb.Open(store, n.roots[n.nextEpoch-1])
			n.state.SetJournal(n.jr)
			return n, nil
		}
	}
	n.state = statedb.Open(store, mpt.EmptyRoot)
	n.state.SetJournal(n.jr)
	if len(cfg.GenesisWrites) > 0 {
		if _, err := n.state.Commit(cfg.GenesisWrites); err != nil {
			return nil, fmt.Errorf("node: genesis: %w", err)
		}
	}
	n.setRootsLocked(map[uint64]types.Hash{0: n.state.Root()})
	return n, nil
}

// setRootsLocked installs a root history and rebuilds its index.
func (n *Node) setRootsLocked(roots map[uint64]types.Hash) {
	n.roots = roots
	n.rootEpoch = make(map[types.Hash]uint64, len(roots))
	for e, root := range roots { //nezha:nondeterminism-ok the index keeps the minimum epoch per root, whatever the order
		n.recordRootLocked(e, root)
	}
}

// recordRootLocked records root as the state after epoch e.
func (n *Node) recordRootLocked(e uint64, root types.Hash) {
	n.roots[e] = root
	if first, ok := n.rootEpoch[root]; !ok || e < first {
		n.rootEpoch[root] = e
	}
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Ledger exposes the node's OHIE ledger.
func (n *Node) Ledger() *dag.Ledger { return n.ledger }

// StateRoot returns the current head state root.
func (n *Node) StateRoot() types.Hash { return n.state.Root() }

// State exposes the node's state database (read paths for tools/examples).
func (n *Node) State() *statedb.StateDB { return n.state }

// Metrics exposes the node's collector.
func (n *Node) Metrics() *metrics.Collector { return n.coll }

// NextEpoch returns the next epoch number the node will process.
func (n *Node) NextEpoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextEpoch
}

// RootAt returns the state root recorded after processing epoch e (epoch 0
// is the genesis root). The chaos harness compares these across nodes.
func (n *Node) RootAt(e uint64) (types.Hash, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	root, ok := n.roots[e]
	return root, ok
}

// SubmitBlock verifies a block's proof of work and adds it to the ledger.
// Blocks whose ancestry has not arrived yet are buffered and retried after
// later submissions (gossip delivers out of order); duplicate and
// below-watermark blocks are reported via dag's errors.
func (n *Node) SubmitBlock(b *types.Block) error {
	// Failpoint: reject or crash on block ingest (a full disk, a corrupted
	// message, a fault injected by the chaos harness).
	if err := fail.HitTag(fail.NodeSubmit, n.id); err != nil {
		return err
	}
	if err := consensus.VerifyPoW(b, n.cfg.Consensus); err != nil {
		return err
	}
	err := n.ledger.Add(b)
	if errors.Is(err, dag.ErrUnknownParent) {
		n.mu.Lock()
		if len(n.orphans) < maxOrphans {
			n.orphans = append(n.orphans, b)
		}
		n.mu.Unlock()
		return err
	}
	if err != nil {
		return err
	}
	n.retryOrphans()
	return nil
}

// maxOrphans bounds the out-of-order buffer.
const maxOrphans = 4096

// retryOrphans re-submits buffered blocks until no further progress.
func (n *Node) retryOrphans() {
	for {
		n.mu.Lock()
		pending := n.orphans
		n.orphans = nil
		n.mu.Unlock()
		if len(pending) == 0 {
			return
		}
		progress := false
		var still []*types.Block
		for _, b := range pending {
			err := n.ledger.Add(b)
			switch {
			case err == nil:
				progress = true
			case errors.Is(err, dag.ErrUnknownParent):
				still = append(still, b)
			default:
				// Duplicate, finalized, or invalid: drop.
			}
		}
		n.mu.Lock()
		n.orphans = append(still, n.orphans...)
		n.mu.Unlock()
		if !progress {
			return
		}
	}
}

// EpochResult reports one processed epoch.
type EpochResult struct {
	Epoch     uint64
	StateRoot types.Hash
	Schedule  *types.Schedule
	Stats     metrics.EpochStats
	// Discarded lists blocks dropped by the validation phase.
	Discarded []types.Hash
}

// pendingEpoch is a processed epoch still owed to the store (see
// Node.pendingPersist).
type pendingEpoch struct {
	e      uint64
	blocks []*types.Block
}

// flushPendingPersistLocked re-attempts a previously failed durability
// write. Nothing else may persist (or process) until the owed epoch is on
// disk: persisted epochs must stay contiguous or restoreFromStore finds a
// watermark pointing at missing blocks.
func (n *Node) flushPendingPersistLocked() error {
	if n.pendingPersist == nil {
		return nil
	}
	if err := n.persistEpochLocked(n.pendingPersist.e, n.pendingPersist.blocks); err != nil {
		return err
	}
	n.pendingPersist = nil
	return nil
}

// ProcessReadyEpochs processes every fully-assembled epoch in order and
// returns their results. An epoch owed to the store by an earlier failed
// persist is flushed first, even when no new epoch is ready.
func (n *Node) ProcessReadyEpochs() ([]*EpochResult, error) {
	n.mu.Lock()
	err := n.flushPendingPersistLocked()
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var out []*EpochResult
	for {
		n.mu.Lock()
		e := n.nextEpoch
		n.mu.Unlock()
		if !n.ledger.EpochReady(e, n.cfg.ConfirmDepth) {
			return out, nil
		}
		res, err := n.ProcessEpoch(e)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
}

// ProcessAssembledEpoch runs the pipeline on an externally-assembled block
// set, bypassing ledger assembly and proof-of-work. The benchmark harness
// uses it to control block concurrency exactly (OHIE's hash assignment
// would otherwise randomize how many blocks land per chain per epoch). The
// blocks are treated as the node's next epoch; their headers must already
// carry the node's current state root and the correct height for
// validation to pass.
func (n *Node) ProcessAssembledEpoch(blocks []*types.Block) (*EpochResult, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.processBlocksLocked(n.nextEpoch, blocks)
}

// ProcessEpoch runs the four-phase pipeline on epoch e. Epochs must be
// processed consecutively.
func (n *Node) ProcessEpoch(e uint64) (*EpochResult, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e != n.nextEpoch {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrEpochOutOfOrder, e, n.nextEpoch)
	}
	blocks, ok := n.ledger.EpochBlocks(e)
	if !ok {
		return nil, fmt.Errorf("%w: epoch %d", ErrEpochNotReady, e)
	}
	return n.processBlocksLocked(e, blocks)
}

// processBlocksLocked runs the epoch through the staged pipeline (see
// pipeline.go for the stages) and finalizes the result.
func (n *Node) processBlocksLocked(e uint64, blocks []*types.Block) (*EpochResult, error) {
	if err := n.flushPendingPersistLocked(); err != nil {
		return nil, err
	}
	stats := metrics.EpochStats{Epoch: e, BlockConcurrency: len(blocks)}
	er := &epochRun{
		number: e,
		blocks: blocks,
		stats:  &stats,
		res:    &EpochResult{Epoch: e},
	}
	stages := pipelineStages
	if n.cfg.Scheduler == nil {
		stages = serialStages
	}
	err := n.runStages(er, stages)
	if err != nil {
		if er.ahead != nil {
			n.abandonLookahead(er.ahead) // adopted, then the epoch failed: the retry runs inline
		}
		return nil, err
	}

	n.nextEpoch++
	root := n.state.Root()
	// Failpoint: corrupt the root this node records and reports for the
	// epoch, without touching the state itself — the forced convergence
	// failure the journal forensics meta-tests use to prove a chaos
	// divergence dumps journals naming the mismatched epoch-commit event.
	if err := fail.HitTag(fail.NodeDivergeRoot, n.id); err != nil {
		root[0] ^= 0x01
	}
	n.recordRootLocked(e, root)
	n.ledger.Finalize(e)
	if n.cfg.Persist {
		if err := n.persistEpochLocked(e, er.epoch.Blocks); err != nil {
			n.pendingPersist = &pendingEpoch{e: e, blocks: er.epoch.Blocks}
			return nil, err
		}
	}
	// The epoch is durable (or durability is off): no view below the
	// post-commit generation can still be live, so the MVCC garbage
	// collector may fold everything older. A failed persist returns above
	// and stalls the watermark along with the persistence watermark.
	n.state.AdvanceWatermark()
	er.res.StateRoot = root
	er.res.Schedule = er.sched
	stats.Committed = er.sched.CommittedCount()
	er.res.Stats = stats
	n.coll.Record(stats)
	n.recordEpochMetrics(&stats, len(er.res.Discarded))
	n.jr.Emit(journal.NodeEpochCommit, e,
		journal.F("root", journal.FoldBytes(root[:])),
		journal.F("committed", uint64(stats.Committed)),
		journal.F("aborted", uint64(stats.Aborted)),
		journal.F("txs", uint64(stats.Txs)))
	return er.res, nil
}

// validStateRootLocked implements the validation-phase root check. OHIE's
// hash-based chain assignment means a miner cannot know pre-mining which
// height its block lands at, so the rule accepts the root of any processed
// epoch strictly below the block's height (the paper's lockstep clusters
// make this "the previous epoch" in practice; see DESIGN.md §7).
func (n *Node) validStateRootLocked(b *types.Block) bool {
	first, ok := n.rootEpoch[b.Header.StateRoot]
	return ok && first < b.Header.Height
}

// CommitSchedule is the commitment phase (§III-B) as a reusable function:
// the schedule's write batch (epochScratch.writeBatch) flushed to the state
// trie in one commit. The benchmark harness calls it directly to measure
// commit latency per scheme.
func CommitSchedule(db *statedb.StateDB, sims []*types.SimResult, sched *types.Schedule, workers int) (types.Hash, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	root, _, err := db.PublishAndSeal(new(epochScratch).writeBatch(sims, sched), workers, nil)
	return root, err
}

// simulate executes one transaction against a state reader (the epoch's
// MVCC view, or the live StateDB in the serial baseline) into sim, which
// must be zero, carving its read and write sets from a.
func (n *Node) simulate(a *vm.Arena, tx *types.Transaction, state statedb.Reader, sim *types.SimResult) {
	sim.Tx = tx
	code, isContract := n.cfg.Contracts[tx.To]
	if !isContract {
		n.simulateTransfer(a, tx, state, sim)
		return
	}
	res, err := vm.ExecuteIn(a, code, vm.Context{
		Contract: tx.To,
		Caller:   tx.From,
		Payload:  tx.Payload,
		GasLimit: tx.Gas,
	}, state)
	sim.Err = err
	sim.Reads = res.Reads
	sim.Writes = res.Writes
	sim.GasUsed = res.GasUsed
}

// simulateTransfer is the native value-transfer path: move tx.Value from
// the sender's to the recipient's balance cell, saturating at zero.
func (n *Node) simulateTransfer(a *vm.Arena, tx *types.Transaction, state statedb.Reader, sim *types.SimResult) {
	fromKey, toKey := types.BalanceKey(tx.From), types.BalanceKey(tx.To)
	fromRaw, err := state.Get(fromKey)
	if err != nil {
		sim.Err = err
		return
	}
	toRaw, err := state.Get(toKey)
	if err != nil {
		sim.Err = err
		return
	}
	from, to := decodeU64(fromRaw), decodeU64(toRaw)
	amount := tx.Value
	if amount > from {
		amount = from
	}
	// Two entries per set, built in key order.
	first, second := 0, 1
	if toKey.Less(fromKey) {
		first, second = 1, 0
	}
	reads, writes := a.Sets(2, 2)
	sim.Reads, sim.Writes = reads[:2], writes[:2]
	sim.Reads[first] = types.ReadEntry{Key: fromKey, Value: fromRaw}
	sim.Reads[second] = types.ReadEntry{Key: toKey, Value: toRaw}
	sim.Writes[first] = types.WriteEntry{Key: fromKey, Value: a.Word(from - amount)}
	sim.Writes[second] = types.WriteEntry{Key: toKey, Value: a.Word(to + amount)}
}

// verifyAgainstState adapts the epoch's state reader to
// core.VerifySchedule's map interface.
func verifyAgainstState(state statedb.Reader, sims []*types.SimResult, sched *types.Schedule) error {
	// The verifier only reads keys that appear in some read set; collect
	// their pre-epoch values.
	values := make(map[types.Key][]byte)
	for _, sim := range sims {
		for _, r := range sim.Reads {
			if _, ok := values[r.Key]; ok {
				continue
			}
			v, err := state.Get(r.Key)
			if err != nil {
				return err
			}
			values[r.Key] = v
		}
	}
	return core.VerifySchedule(values, sims, sched)
}

func decodeU64(raw []byte) uint64 {
	if len(raw) != 8 {
		return 0
	}
	var v uint64
	for _, b := range raw {
		v = v<<8 | uint64(b)
	}
	return v
}
