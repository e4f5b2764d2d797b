package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/crypto"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/slab"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
)

// The epoch pipeline as named stages.
//
// processBlocksLocked runs a stage list, each stage a named function over
// the shared epochRun scratch. The stage boundary is also the measurement
// boundary: runStages times every stage into a metrics.StageStat (queue
// depth, worker count, busy time) appended to EpochStats.Stages, the one
// record the per-phase numbers are read from.
//
// Cross-epoch overlap: epoch e+1 depends on epoch e through the VALUES e
// commits, not through e's trie nodes, hashes, root or store batch, and
// its signature validation depends on no state at all. The commit stage of
// epoch e therefore starts two background runs for e+1. Signature
// prevalidation (kickPrevalidation) rides under the whole commit; the next
// validate stage collects it (takePrevalidation) and checks inline any
// block it did not cover, and either way a transaction that already carries
// a verdict — admitted by this node's pool, checked by an in-process peer —
// is not verified again (crypto.VerifyTxOnce; DESIGN.md §18). The
// look-ahead run (lookahead.go) starts the moment e's writes are published
// as an MVCC generation, executes and schedules e+1 against a view pinned
// there while e's trie seals, then stages e+1's write batch — the trie
// update and hashing of e+1's seal — on top of e's root, and is adopted by
// ProcessEpoch(e+1) when it turns out to have run on exactly the blocks and
// the state that epoch validates; anything else joins it, drops it,
// unstages it and runs the stages inline. What an adopted epoch still pays
// inside ProcessEpoch is its publish and the flush of the staged encodings
// (merge and store batch); ProcessEpoch(e) returns e's sealed, persisted
// root.

// stage is one named step of the epoch pipeline. run receives the stage's
// StageStat with Name and Workers pre-filled and may refine Tasks, Busy,
// Workers, and Overlap; runStages fills Duration. failName is the stage's
// handoff failpoint, evaluated before the stage runs (precomputed so the
// disabled fast path costs no string concatenation per epoch).
type stage struct {
	name     string
	failName fail.Name
	run      func(n *Node, er *epochRun, ss *metrics.StageStat) error
}

// epochRun is the scratch state one epoch threads through its stages.
type epochRun struct {
	number uint64
	blocks []*types.Block

	epoch      *types.Epoch
	state      statedb.Reader     // pre-epoch read state: the MVCC view
	sims       []*types.SimResult // executions that did not fail, ascending by id
	execFailed []types.TxID
	sched      *types.Schedule

	// ahead is the look-ahead run the validate stage adopted, if it did.
	ahead *lookahead
	// scratch is the epoch's slot of the scratch ring when it runs inline;
	// an adopted epoch's buffers are the run's, in the same slot.
	scratch *epochScratch

	stats *metrics.EpochStats
	res   *EpochResult
}

// pipelineStages is the speculative pipeline of §III-B — validation,
// concurrent execution, concurrency control, group-concurrent commitment —
// over the copy-free MVCC view. An epoch that adopts a look-ahead run walks
// the same four stages; its execute and schedule stages collect what the run
// computed instead of computing it.
var pipelineStages = []stage{
	{"validate", fail.NodeStageValidate, (*Node).validateStage},
	{"execute", fail.NodeStageExecute, (*Node).executeStage},
	{"schedule", fail.NodeStageSchedule, (*Node).scheduleStage},
	{"commit", fail.NodeStageCommit, (*Node).commitStage},
}

// serialStages is the serial baseline of §VI-B behind the same harness.
var serialStages = []stage{
	{"validate", fail.NodeStageValidate, (*Node).validateStage},
	{"serial", fail.NodeStageSerial, (*Node).serialStage},
}

// runStages drives the pipeline: each stage is timed into a StageStat
// appended to stats.Stages.
func (n *Node) runStages(er *epochRun, stages []stage) error {
	for _, st := range stages {
		// Stage-handoff failpoint: an injected error aborts the epoch
		// before the stage touches shared state; an injected panic
		// simulates a crash between stages.
		if err := fail.HitTag(st.failName, n.id); err != nil {
			return fmt.Errorf("node: epoch %d %s handoff: %w", er.number, st.name, err)
		}
		ss := metrics.StageStat{Name: st.name, Workers: 1}
		start := time.Now()
		if err := st.run(n, er, &ss); err != nil {
			return err
		}
		ss.Duration = time.Since(start)
		er.stats.Stages = append(er.stats.Stages, ss)
		n.recordStageMetrics(st.name, ss)
		n.jr.Emit(journal.NodeStageDone, er.number, //nezha:dettaint-ok only the stage name and task count are journaled; the wall-clock Duration on ss stays in metrics and the tracer
			journal.FS("stage", st.name), journal.F("tasks", uint64(ss.Tasks)))
		n.tracer.Span(n.id, st.name, start, ss.Duration, map[string]any{
			"epoch":     er.number,
			"tasks":     ss.Tasks,
			"workers":   ss.Workers,
			"occupancy": ss.Occupancy(),
		})
	}
	return nil
}

// validateStage discards blocks whose state root does not match an agreed
// epoch state or that carry an invalid signature (§III-B). Signature
// verdicts prevalidated under the previous epoch's commit are consumed
// here; blocks the background pass missed are checked inline.
func (n *Node) validateStage(er *epochRun, ss *metrics.StageStat) error {
	pv := n.takePrevalidation(er.number)
	ss.Tasks = len(er.blocks)
	ss.Workers = n.cfg.Workers
	var sigOK map[types.Hash]bool
	if pv != nil {
		// Time the background pass spent under the previous commit —
		// latency this epoch did not pay.
		ss.Overlap = pv.elapsed
		n.tracer.Span(n.id+"/background", "prevalidate", pv.started, pv.elapsed,
			map[string]any{"epoch": er.number, "blocks": len(pv.ok)})
		sigOK = pv.ok
	}
	if n.cfg.VerifySignatures {
		var rest []*types.Block // what the background pass did not cover
		for _, b := range er.blocks {
			if _, covered := sigOK[b.Hash()]; !covered {
				rest = append(rest, b)
			}
		}
		sigOK = checkSignatures(rest, n.cfg.Workers, sigOK)
	}
	valid := er.blocks[:0]
	for _, b := range er.blocks {
		if (!n.cfg.VerifySignatures || sigOK[b.Hash()]) && n.validStateRootLocked(b) {
			valid = append(valid, b)
		} else {
			h := b.Hash()
			er.res.Discarded = append(er.res.Discarded, h)
			n.jr.Emit(journal.NodeBlockDiscard, er.number,
				journal.F("block", journal.FoldBytes(h[:])))
		}
	}
	// The look-ahead run, if any, assumed the ledger's blocks would all
	// survive and read the state the previous epoch published. Only now are
	// both known; an adopted epoch is numbered along the run's own dedupe
	// instead of hashing the epoch a second time.
	if n.adoptLookahead(er, valid) {
		er.epoch = types.NewEpochFrom(er.number, valid, er.ahead.flattenedTxs())
	} else {
		er.scratch = n.takeScratch(er.number)
		er.epoch = types.NewEpochFrom(er.number, valid, er.scratch.dedupe(valid))
	}
	er.stats.Txs = len(er.epoch.Txs)
	// The assembled composition — which blocks survived validation, in
	// what order, carrying which transactions — is the scheduler's entire
	// input. Journaling its digests here is what lets divergence forensics
	// tell "the nodes scheduled different inputs" apart from "the nodes
	// scheduled the same input differently" (ROADMAP item 6). Enabled()
	// gates the digest walk, not just the append.
	if journal.Enabled() {
		bd, td := assemblyDigests(valid, er.epoch.Txs)
		n.jr.Emit(journal.NodeEpochAssembly, er.number,
			journal.F("blocks", uint64(len(valid))),
			journal.F("txs", uint64(len(er.epoch.Txs))),
			journal.F("bdigest", bd),
			journal.F("tdigest", td))
	}
	return nil
}

// assemblyDigests folds the epoch composition into two comparable values:
// FNV-1a over the surviving block hashes in epoch order, and over the
// transaction hashes in their assigned ID order. Any difference in which
// blocks survived, their order, or the tx order they induce perturbs one
// of the digests.
func assemblyDigests(blocks []*types.Block, txs []*types.Transaction) (uint64, uint64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	fold := func(h uint64, b []byte) uint64 {
		for _, c := range b {
			h ^= uint64(c)
			h *= prime
		}
		return h
	}
	bd := uint64(offset)
	for _, b := range blocks {
		h := b.Hash()
		bd = fold(bd, h[:])
	}
	td := uint64(offset)
	for _, tx := range txs {
		h := tx.Hash()
		td = fold(td, h[:])
	}
	return bd, td
}

// AssemblyDigests re-derives the node/epoch-assembly digests of an epoch
// from its canonical blocks — the forensic hook the recovery self-audit
// and cluster.Compare use to compare composition across a crash boundary
// and across replicas. Epoch assembly is deterministic in the block
// sequence: the epoch's transaction order is types.DedupeTxs's, so two
// nodes (or one node before and after a restart) holding the same blocks
// in the same order must produce identical digests. It writes nothing the
// blocks reach, so it may run beside a pipeline numbering the same
// transactions for another epoch.
func AssemblyDigests(blocks []*types.Block) (blockDigest, txDigest uint64) {
	return assemblyDigests(blocks, types.DedupeTxs(blocks))
}

// execution is what speculative execution of one epoch produced.
type execution struct {
	sims    []*types.SimResult // executions that did not fail, ascending by id
	failed  []types.TxID
	workers int
	busy    time.Duration // summed per-worker spans
}

// executeTxs speculatively executes txs against state on the worker pool —
// the execute stage's body, and the look-ahead run's. Workers pull indices
// from an atomic counter (cheaper than a channel at this fan-out) and fill
// disjoint slots of the slot's result slab, each carving read and write
// sets from an arena of its own; per-worker busy spans feed the stage's
// occupancy counters. sims and failed are the slot's too. It touches
// nothing n.mu guards. A set stop (the look-ahead's owner giving up; nil in
// the stage) ends the workers at their next transaction and leaves sims and
// failed unbuilt.
func (n *Node) executeTxs(s *epochScratch, txs []*types.Transaction, state statedb.Reader, stop *atomic.Bool) execution {
	ex := execution{workers: n.cfg.Workers}
	s.results = slab.Reuse(s.results, len(txs))
	results := s.results
	if ex.workers > len(txs) && len(txs) > 0 {
		ex.workers = len(txs)
	}
	s.busy = slab.Reuse(s.busy, ex.workers)
	busy := s.busy
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < ex.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			for stop == nil || !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(txs) {
					break
				}
				n.simulate(&s.arenas[w], txs[i], state, &results[i])
			}
			busy[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	for _, d := range busy {
		ex.busy += d
	}
	if stop != nil && stop.Load() {
		return ex
	}
	ex.sims, ex.failed = s.sims[:0], s.failed[:0]
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			ex.failed = append(ex.failed, r.Tx.ID)
			continue
		}
		ex.sims = append(ex.sims, r)
	}
	s.sims, s.failed = ex.sims, ex.failed
	return ex
}

// controlTxs runs the configured concurrency-control scheme over the
// successful simulations and folds the failed ones into the abort set — the
// schedule stage's body, and the look-ahead run's.
func (n *Node) controlTxs(sims []*types.SimResult, failed []types.TxID) (*types.Schedule, types.PhaseBreakdown, error) {
	sched, breakdown, err := n.cfg.Scheduler.Schedule(sims)
	if err != nil {
		return nil, breakdown, err
	}
	for _, id := range failed {
		sched.Abort(id, types.AbortExecution)
	}
	sched.NormalizeAborts()
	return sched, breakdown, nil
}

// executeStage speculatively executes the epoch's transactions against the
// pre-epoch state, reading through a copy-free MVCC view — or, in an epoch
// that adopted a look-ahead run, waits for the run's execution and takes it
// over: same Tasks, Workers and Busy, the wait as the stage's Duration and
// the time the run spent executing as Overlap (the convention the validate
// stage set: how long the background work took, whatever was left to wait).
func (n *Node) executeStage(er *epochRun, ss *metrics.StageStat) error {
	var ex execution
	if la := er.ahead; la != nil {
		n.awaitLookahead(er, "execute", la.executed)
		ss.Overlap = la.execTime
		ex = la.exec
	} else {
		er.state = n.state.View()
		ex = n.executeTxs(er.scratch, er.epoch.Txs, er.state, nil)
	}
	er.sims, er.execFailed = ex.sims, ex.failed
	er.stats.ExecutionFailed = len(ex.failed)
	ss.Tasks = len(er.epoch.Txs)
	ss.Workers = ex.workers
	ss.Busy = ex.busy
	return nil
}

// scheduleStage runs concurrency control — or waits for the adopted run's —
// and journals and, when asked, verifies the schedule either way.
func (n *Node) scheduleStage(er *epochRun, ss *metrics.StageStat) error {
	var (
		sched     *types.Schedule
		breakdown types.PhaseBreakdown
		err       error
	)
	if la := er.ahead; la != nil {
		n.awaitLookahead(er, "schedule", la.scheduled)
		ss.Overlap = la.schedTime
		sched, breakdown, err = la.sched, la.breakdown, la.err
		n.tracer.Span(n.id+"/background", "lookahead", la.started, la.elapsed,
			map[string]any{"epoch": er.number, "txs": len(er.epoch.Txs)})
	} else {
		sched, breakdown, err = n.controlTxs(er.sims, er.execFailed)
	}
	if err != nil {
		return fmt.Errorf("node: schedule epoch %d: %w", er.number, err)
	}
	er.sched = sched
	er.stats.Aborted = sched.AbortedCount() - len(er.execFailed)
	er.stats.ControlBreakdown = breakdown
	ss.Tasks = len(er.sims)

	// The scheduler's phase output is the replica-deterministic artifact
	// divergence forensics align on; the digest folds the group layout so
	// a reordered or resized group shows up without journaling every id.
	// Enabled() gates the digest walk, not just the append.
	if journal.Enabled() {
		groups := sched.Groups()
		n.jr.Emit(journal.SchedGroups, er.number,
			journal.F("groups", uint64(len(groups))),
			journal.F("rescued", uint64(breakdown.Rescued)),
			journal.F("digest", groupDigest(groups)))
	}

	if n.cfg.VerifySchedules {
		if err := verifyAgainstState(er.state, er.sims, sched); err != nil {
			return fmt.Errorf("node: epoch %d schedule unsound: %w", er.number, err)
		}
	}
	return nil
}

// groupDigest folds a schedule's commit-group layout into one comparable
// value: FNV-1a over each group's size and first/last transaction id.
// Groups are already in deterministic commit order, so two replicas that
// scheduled the same epoch identically produce the same digest, and any
// layout difference — a split group, a reordered boundary — perturbs it.
func groupDigest(groups [][]types.TxID) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		mix(uint64(len(g)))
		mix(uint64(g[0]))
		mix(uint64(g[len(g)-1]))
	}
	return h
}

// commitStage publishes the epoch's write batch as the next MVCC generation
// and seals it into the trie and the store. An epoch that adopted a
// look-ahead run waits for the run to stage and commits the batch the run
// built, whose trie update and hashing are then already done — the wait is
// in the stage's Duration, the staging time is its Overlap; any other epoch
// builds the batch itself (epochScratch.writeBatch) and the seal does the
// whole work.
// Before the commit starts it kicks the background signature prevalidation
// of the NEXT epoch, and between publish and seal the look-ahead run for
// it, so that work rides under this epoch's commit.
func (n *Node) commitStage(er *epochRun, ss *metrics.StageStat) error {
	n.kickPrevalidation(er.number + 1)
	next := n.nextLookahead(er.number + 1)
	ss.Tasks = er.sched.CommittedCount()
	start := time.Now()
	var writes []types.WriteEntry
	if la := er.ahead; la != nil {
		n.awaitLookahead(er, "commit", la.done)
		start = time.Now() // waiting is not busy
		ss.Overlap = la.stageTime
		writes = la.batch
		n.tracer.Span(n.id+"/background", "stage", la.started.Add(la.elapsed), la.stageTime,
			map[string]any{"epoch": er.number, "writes": len(writes), "staged": la.staged.Staged})
	} else {
		writes = er.scratch.writeBatch(er.sims, er.sched)
	}
	_, seal, err := n.state.PublishAndSeal(writes, n.cfg.Workers, func(view *mvcc.View) error {
		n.startLookahead(next, view)
		// Failpoint: the epoch's writes are readable but not yet in the
		// trie. An injected error is a refused seal; an injected panic is a
		// crash that must recover to the previous epoch's root.
		if err := fail.HitTag(fail.NodeStageSeal, n.id); err != nil {
			return fmt.Errorf("seal: %w", err)
		}
		return nil
	})
	if err != nil {
		// The versions are rolled back, the trie is at the previous root and
		// the StateDB's locks are free again: only now can the run — perhaps
		// staging, parked on a lock, perhaps holding values of the generation
		// that no longer exists — be stopped, waited for and dropped, so the
		// retried epoch finds none.
		n.dropLookahead()
		return fmt.Errorf("node: commit epoch %d: %w", er.number, err)
	}
	// The width the trie's work actually used; busy is this goroutine
	// throughout plus what the other workers did beside it — and, when the
	// seal adopted a staged batch, the same of the staging, as the adopted
	// execute stage reports the run's execution.
	ss.Workers = seal.Workers
	ss.Busy = time.Since(start) + seal.Beside
	if seal.Staged {
		n.recordStaged()
		st := er.ahead.staged
		ss.Workers = max(ss.Workers, st.Workers)
		ss.Busy += er.ahead.stageTime + st.Beside
	}
	return nil
}

// serialStage is the baseline of §VI-B: execute and commit each
// transaction in order against the live state, no speculation, no aborts
// (failed executions are skipped, as a failed EVM transaction would be).
// It reads the live StateDB: the loop is single-threaded under n.mu.
func (n *Node) serialStage(er *epochRun, ss *metrics.StageStat) error {
	sched := types.NewSchedule()
	seq := types.Seq(1)
	for _, tx := range er.epoch.Txs {
		var sim types.SimResult
		n.simulate(&er.scratch.arenas[0], tx, n.state, &sim)
		if sim.Err != nil {
			sched.Abort(tx.ID, types.AbortExecution)
			er.stats.ExecutionFailed++
			continue
		}
		if _, err := n.state.Commit(sim.Writes); err != nil {
			return fmt.Errorf("node: serial commit: %w", err)
		}
		sched.Commit(tx.ID, seq)
		seq++
	}
	sched.NormalizeAborts()
	er.sched = sched
	ss.Tasks = len(er.epoch.Txs)
	return nil
}

// prevalidation is one background signature-checking run for an upcoming
// epoch. The goroutine writes ok and elapsed strictly before closing done,
// so a reader that waits on done observes both.
type prevalidation struct {
	epoch   uint64
	done    chan struct{}
	ok      map[types.Hash]bool
	started time.Time
	elapsed time.Duration
}

// kickPrevalidation starts checking epoch e's block signatures in the
// background. Caller holds n.mu; the goroutine itself must not touch any
// mu-guarded state — it reads only the ledger (internally locked; blocks
// are immutable once added) and writes its own prevalidation record.
// Fork-choice races are harmless: verdicts are keyed by block hash and the
// validate stage re-checks uncovered blocks inline.
func (n *Node) kickPrevalidation(e uint64) {
	if !n.cfg.VerifySignatures {
		return
	}
	blocks, ok := n.ledger.EpochBlocks(e)
	if !ok || len(blocks) == 0 {
		return
	}
	pv := &prevalidation{epoch: e, done: make(chan struct{})}
	n.preval = pv
	workers := n.cfg.Workers
	go func() {
		pv.started = time.Now()
		pv.ok = checkSignatures(blocks, workers, nil)
		pv.elapsed = time.Since(pv.started)
		close(pv.done)
	}()
}

// takePrevalidation claims the pending background run for epoch e, waiting
// for it to finish. A run for a different epoch (fork reorg, assembled
// epochs bypassing the ledger) is dropped without waiting — its goroutine
// only touches its own record and dies quietly.
func (n *Node) takePrevalidation(e uint64) *prevalidation {
	pv := n.preval
	n.preval = nil
	if pv == nil || pv.epoch != e {
		return nil
	}
	<-pv.done
	return pv
}

// checkSignatures verifies the blocks' transactions in one flat pass across
// the given number of workers (signature verification is the validation
// phase's dominant cost on real chains) and adds one verdict per block to
// ok: true when every signature in it is valid. A transaction that already
// carries a verdict costs a digest, not a verification.
func checkSignatures(blocks []*types.Block, workers int, ok map[types.Hash]bool) map[types.Hash]bool {
	if ok == nil {
		ok = make(map[types.Hash]bool, len(blocks))
	}
	var txs []*types.Transaction
	for _, b := range blocks {
		txs = append(txs, b.Txs...)
	}
	errs := crypto.VerifyTxsOnce(txs, workers)
	for _, b := range blocks {
		ok[b.Hash()] = true
		if errs == nil {
			continue
		}
		for _, err := range errs[:len(b.Txs)] {
			if err != nil {
				ok[b.Hash()] = false
			}
		}
		errs = errs[len(b.Txs):]
	}
	return ok
}
