package node

import (
	"slices"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
)

// The look-ahead run: epoch e+1 executed, scheduled and staged in the
// background against the state epoch e has published, while e's trie seals
// and, after ProcessEpoch(e) has returned, while the caller does whatever
// it does between epochs. Staging is the expensive half of e+1's seal done
// early: once e's seal is over, the run builds e+1's write batch (the one
// the commit stage would build) and has the StateDB apply it to the trie on
// top of e's root and hash it (statedb.Stage), so that ProcessEpoch(e+1)
// adopts a trie that only needs its flush.
//
// The run makes two assumptions it cannot check — that every block the
// ledger holds for e+1 survives validation (validity depends on e's root,
// which the seal is still computing) and that nothing else moves the state
// before e+1 is processed — so ProcessEpoch(e+1) checks them for it:
// the validate stage adopts the run iff it ran for exactly the ordered
// block list validation let through, at exactly the generation the node's
// state is at; anything else stops it, waits for it and drops it, and the
// epoch takes the inline path. An adopted run's execution and schedule are
// what the inline stages would have computed: same helpers (executeTxs,
// controlTxs), same state, same transactions in the same order.
//
// The run only reads — the node's immutable config, the blocks (immutable
// once in the ledger), its own copies of their transactions, the view, and
// the store through StateDB.Get — with one exception, the staged batch. In
// particular it never writes a ledger Transaction and never reads one's ID:
// in-process peers share those objects, one object can recur in adjacent
// epochs, and every composition renumbers them (types.NewEpoch), so the run
// numbers private field-wise copies by its own dedupe instead. It takes no
// lock of the node, and its reads take none of the StateDB's: a cold read
// loads the trie's committed root beside a commit's flush. Staging does
// wait on the StateDB's locks for a commit's seal, which is why the node
// never waits for a run while it holds either lock.
//
// The staged batch is written but never read: the StateDB keeps it off
// every read path (Get, Iterate, views and the commit's pre-flush loads
// read the committed root) and out of the journal. The run does not stage
// once it is stopped, nor when the state it read was rolled back (a refused
// seal), and a commit adopts the staged trie only for exactly the batch it
// commits, on exactly the root it was staged on. Every way a run can fail
// unstages: the owner that abandons a run, adopted or not, unstages after
// waiting for it, and a commit that fails rolls its staged batch back with
// the rest.

// lookahead is one background run. blocks and view are fixed before the
// goroutine starts; it writes each group of result fields strictly before
// closing the channel that guards the group.
type lookahead struct {
	epoch  uint64
	blocks []*types.Block // the ledger's ordered list for epoch, all assumed valid
	view   *mvcc.View     // the state the previous epoch published
	stop   atomic.Bool    // set by the owner to abandon the run

	// beforeStage, when set (tests only), runs between schedule and stage,
	// before the schedule is handed over.
	beforeStage func(*lookahead)

	flattened chan struct{} // guards txs
	executed  chan struct{} // guards exec, execTime
	scheduled chan struct{} // guards sched, breakdown, err, schedTime, elapsed
	done      chan struct{} // guards batch, staged, stageTime

	started   time.Time
	txs       []*types.Transaction // the ledger's objects in dedupe order; the run only reads them
	exec      execution            // over private copies of txs, numbered by position
	sched     *types.Schedule
	breakdown types.PhaseBreakdown
	err       error              // the scheduler's; the adopting schedule stage returns it
	batch     []types.WriteEntry // the epoch's write batch, built once for the commit
	staged    statedb.SealStats  // how the StateDB staged batch, if it did

	execTime, schedTime, elapsed, stageTime time.Duration
}

// nextLookahead prepares, without starting, the run for epoch e when the
// ledger already holds the epoch as the node would process it next. Caller
// holds n.mu.
func (n *Node) nextLookahead(e uint64) *lookahead {
	if !n.ledger.EpochReady(e, n.cfg.ConfirmDepth) {
		return nil
	}
	blocks, ok := n.ledger.EpochBlocks(e)
	if !ok {
		return nil
	}
	return &lookahead{
		epoch: e, blocks: blocks,
		flattened: make(chan struct{}), executed: make(chan struct{}),
		scheduled: make(chan struct{}), done: make(chan struct{}),
	}
}

// startLookahead starts a prepared run on the just-published view and makes
// it the node's pending one. It is called between publish and seal, under
// the StateDB's commit lock, so it does nothing but launch the goroutine.
func (n *Node) startLookahead(la *lookahead, view *mvcc.View) {
	if la == nil {
		return
	}
	la.view = view
	n.ahead = la
	go la.run(n)
}

func (la *lookahead) run(n *Node) {
	defer close(la.done)
	la.started = time.Now()
	la.txs = types.DedupeTxs(la.blocks)
	own := make([]types.Transaction, len(la.txs))
	txs := make([]*types.Transaction, len(la.txs))
	for i, tx := range la.txs {
		own[i] = tx.DetachedCopy(types.TxID(i))
		txs[i] = &own[i]
	}
	close(la.flattened)
	la.exec = n.executeTxs(txs, la.view, &la.stop)
	la.execTime = time.Since(la.started)
	close(la.executed)
	if la.stop.Load() {
		close(la.scheduled)
		return
	}
	start := time.Now()
	la.sched, la.breakdown, la.err = n.controlTxs(la.exec.sims, la.exec.failed)
	la.schedTime = time.Since(start)
	if la.beforeStage != nil && la.err == nil {
		la.beforeStage(la)
	}
	la.elapsed = time.Since(la.started)
	close(la.scheduled)
	if la.err != nil {
		return
	}
	start = time.Now()
	la.batch = writeBatch(la.exec.sims, la.sched)
	la.staged = n.state.Stage(la.view, la.batch, n.cfg.Workers, &la.stop) //nezha:dettaint-ok the batch is built from the run's simulations and schedule alone; its wall-clock fields only feed the ledger and the tracer
	la.stageTime = time.Since(start)
}

// awaitLookahead blocks one stage of the epoch that adopted the run until
// the run closes ch, the channel guarding what the stage takes over, and
// records the wait: the nezha_node_lookahead_wait_seconds histogram by stage
// and a lookahead-wait span on the node's track.
func (n *Node) awaitLookahead(er *epochRun, stage string, ch <-chan struct{}) {
	start := time.Now()
	<-ch
	wait := time.Since(start)
	n.recordLookaheadWait(stage, wait)
	n.tracer.Span(n.id, "lookahead-wait", start, wait, map[string]any{"epoch": er.number, "stage": stage})
}

// flattenedTxs waits for the run's dedupe and returns the epoch's
// transactions — the ledger's objects, for the adopting epoch to number.
func (la *lookahead) flattenedTxs() []*types.Transaction {
	<-la.flattened
	return la.txs
}

// adoptLookahead decides the fate of the pending run, now that validation
// has fixed the epoch's block list: the epoch owns the run (er.ahead) and
// reads the state it read (er.state) iff it is adopted.
func (n *Node) adoptLookahead(er *epochRun, valid []*types.Block) bool {
	la := n.ahead
	n.ahead = nil
	if la == nil {
		if n.cfg.Scheduler != nil {
			n.recordLookahead("none")
		}
		return false
	}
	head := n.state.View()
	if la.epoch != er.number || la.view.Gen() != head.Gen() || !slices.Equal(la.blocks, valid) {
		n.discardLookahead(la)
		return false
	}
	er.ahead, er.state = la, head
	n.recordLookahead("adopted")
	return true
}

// abandonLookahead stops the run, waits for its goroutine to exit, lets go
// of what it computed and unstages its batch, so the trie is at the
// committed root when it returns. The caller must not hold the StateDB's
// locks: the run's staging may be parked on one.
func (n *Node) abandonLookahead(la *lookahead) {
	la.stop.Store(true)
	<-la.done
	n.state.Unstage()
	la.exec, la.batch = execution{}, nil
}

// discardLookahead abandons a run no epoch adopted.
func (n *Node) discardLookahead(la *lookahead) {
	n.abandonLookahead(la)
	n.recordLookahead("discarded")
}

// dropLookahead discards the node's pending run, if any. Caller holds n.mu.
func (n *Node) dropLookahead() {
	if la := n.ahead; la != nil {
		n.ahead = nil
		n.discardLookahead(la)
	}
}
