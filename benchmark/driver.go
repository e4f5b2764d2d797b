package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
)

// call names one public function the driver times from outside.
type call int

const (
	callAdmit call = iota
	callAssemble
	callMine  // first consensus.Mine attempt of a block
	callSteer // further attempts, until the block lands on its chain
	callSubmit
	callMarkIncluded
	callProcess
	numCalls
)

var callNames = [numCalls]string{
	"mempool.AdmitBatch", "mempool.Assemble", "consensus.Mine", "driver.steer",
	"node.SubmitBlock", "mempool.MarkIncluded", "node.ProcessEpoch",
}

// counts is the driver's ledger of what happened to every transaction it
// attempted. The accounting check requires
// attempted = committed + aborted + execFailed + refused.
type counts struct {
	attempted  int // counted when the transaction's epoch is settled, like the outcomes
	committed  int
	aborted    int // scheduler aborts: the deterministic outcome the paper measures
	execFailed int
	refused    int // admission refusals
	epochs     int
	blocks     int // counted when sent, where the per-block calls are timed
}

func (c counts) sub(o counts) counts {
	return counts{
		attempted: c.attempted - o.attempted, committed: c.committed - o.committed,
		aborted: c.aborted - o.aborted, execFailed: c.execFailed - o.execFailed,
		refused: c.refused - o.refused, epochs: c.epochs - o.epochs, blocks: c.blocks - o.blocks,
	}
}

// failed counts the operations that did not reach a replica-agreed
// outcome. A scheduler abort is an outcome (commit_share bounds it); a
// refusal or an execution failure is not, and the workloads are chosen so
// neither happens.
func (c counts) failed() int { return c.attempted - c.committed - c.aborted }

// epochRecord is what the driver keeps per processed epoch.
type epochRecord struct {
	epoch     uint64
	probe     time.Duration // hostProbe just before the iteration; outside iter
	iter      time.Duration // whole driver iteration: look-ahead mining, ProcessEpoch, accounting
	wall      time.Duration // ProcessEpoch alone
	committed int
	root      types.Hash
	stages    []metrics.StageStat
}

// driver pushes a pre-generated transaction stream through one system from
// a single goroutine, along the public path
// AdmitBatch → Assemble → Mine → SubmitBlock → MarkIncluded → ProcessEpoch.
//
// Blocks are cut at fixed stream boundaries (block j = txs [j·B, (j+1)·B))
// and steered onto chain j mod ω by retrying consensus.Mine with a fresh
// nonce seed, so every epoch is exactly ω full blocks: OHIE's random chain
// assignment would otherwise let chain heights drift apart and epochs
// shrink as the run grows, and the numbers would depend on run length.
type driver struct {
	sys    *system
	txs    []*types.Transaction
	params consensus.Params
	tr     *tracer // nil unless this is the traced pass

	nextBlock int    // next stream block to send
	clock     uint64 // Template.Time: a logical counter, never the wall clock
	nonceSeed uint64
	processed uint64 // last processed epoch

	calls   [numCalls]time.Duration // total wall time inside each call
	counts  counts
	records []epochRecord
	refused map[*types.Transaction]bool
	seenIDs []bool // per-epoch scratch: every committed id seen once

	// Paced segment only.
	pacing    bool
	pacedT0   time.Time
	pacedBase int // stream index of the first paced transaction
	rate      float64
	latencies []float64 // ms, due time → commit, committed transactions only
	lateness  []float64 // ms, how late each block left the generator
}

func newDriver(sys *system, txs []*types.Transaction, tr *tracer) *driver {
	return &driver{
		sys:     sys,
		txs:     txs,
		params:  consensus.Params{Chains: sys.w.Chains, DifficultyBits: 0},
		tr:      tr,
		refused: make(map[*types.Transaction]bool),
		seenIDs: make([]bool, sys.w.epochTxs()),
	}
}

// timed runs fn, adds its wall time to the call's total, and records a span
// when tracing.
func (d *driver) timed(c call, epoch uint64, fn func() error) error {
	id := d.tr.begin(callNames[c], epoch)
	start := time.Now()
	err := fn()
	d.calls[c] += time.Since(start)
	d.tr.end(id)
	return err
}

// sendBlock admits the next B stream transactions, assembles them back out
// of the pool, mines the block onto its chain and submits it.
func (d *driver) sendBlock() error {
	j := d.nextBlock
	d.nextBlock++
	w := d.sys.w
	epoch := uint64(j/w.Chains) + 1
	chain := uint32(j % w.Chains)
	batch := d.txs[j*blockSize : (j+1)*blockSize]
	pool, n := d.sys.pool, d.sys.node

	var errs []error
	_ = d.timed(callAdmit, epoch, func() error { _, errs = pool.AdmitBatch(batch); return nil })
	admitted := len(batch)
	for i, err := range errs {
		if err != nil {
			d.refused[batch[i]] = true
			d.counts.refused++
			admitted--
		}
	}

	var txs []*types.Transaction
	_ = d.timed(callAssemble, epoch, func() error { txs = pool.Assemble(blockSize); return nil })
	if len(txs) != admitted {
		return fmt.Errorf("block %d: assembled %d transactions, admitted %d", j, len(txs), admitted)
	}

	var b *types.Block
	for attempt := 0; ; attempt++ {
		c := callMine
		if attempt > 0 {
			c = callSteer
		}
		d.nonceSeed += 1 << 20
		err := d.timed(c, epoch, func() (err error) {
			b, err = consensus.Mine(context.Background(), consensus.Template{
				Ledger:    n.Ledger(),
				StateRoot: n.StateRoot(),
				Txs:       txs,
				Miner:     types.AddressFromUint64(1),
				Time:      d.clock,
				NonceSeed: d.nonceSeed,
			}, d.params)
			return err
		})
		if err != nil {
			return fmt.Errorf("block %d: mine: %w", j, err)
		}
		if b.Header.ChainID == chain {
			break
		}
	}
	d.clock++
	if err := d.timed(callSubmit, epoch, func() error { return n.SubmitBlock(b) }); err != nil {
		return fmt.Errorf("block %d: submit: %w", j, err)
	}
	_ = d.timed(callMarkIncluded, epoch, func() error { pool.MarkIncluded(txs); return nil })
	d.counts.blocks++
	return nil
}

// mineEpoch sends the ω blocks of epoch e.
func (d *driver) mineEpoch() error {
	for c := 0; c < d.sys.w.Chains; c++ {
		if err := d.sendBlock(); err != nil {
			return err
		}
	}
	return nil
}

// processEpoch runs ProcessEpoch(e) and settles the account of the epoch's
// transactions: which committed (each id exactly once), which aborted, and
// in the paced segment how long each committed one took from its due time.
func (d *driver) processEpoch(e uint64) error {
	var res *node.EpochResult
	start := time.Now()
	err := d.timed(callProcess, e, func() (err error) {
		res, err = d.sys.node.ProcessEpoch(e)
		return err
	})
	done := time.Now()
	if err != nil {
		return fmt.Errorf("epoch %d: %w", e, err)
	}
	if e != d.processed+1 || res.Epoch != e {
		return fmt.Errorf("epoch %d: processed out of sequence after %d", e, d.processed)
	}
	d.processed = e
	if len(res.Discarded) != 0 {
		return fmt.Errorf("epoch %d: validation discarded %d blocks", e, len(res.Discarded))
	}
	d.tr.stages(res.Stats.Stages, start, e)

	per := d.sys.w.epochTxs()
	first := int(e-1) * per
	clear(d.seenIDs)
	committed, refused := 0, 0
	for i, tx := range d.txs[first : first+per] {
		if d.refused[tx] {
			refused++
			continue
		}
		if !res.Schedule.IsCommitted(tx.ID) {
			continue
		}
		if int(tx.ID) >= per || d.seenIDs[tx.ID] {
			return fmt.Errorf("epoch %d: committed id %d seen twice or out of range", e, tx.ID)
		}
		d.seenIDs[tx.ID] = true
		committed++
		if d.pacing {
			due := d.pacedT0.Add(time.Duration(float64(first+i-d.pacedBase) / d.rate * float64(time.Second)))
			d.latencies = append(d.latencies, ms(done.Sub(due)))
		}
	}
	st := res.Stats
	if committed != st.Committed || st.Txs+refused != per ||
		st.Committed+st.Aborted+st.ExecutionFailed != st.Txs {
		return fmt.Errorf("epoch %d: accounting: stream %d txs (%d refused), node saw %d = %d committed + %d aborted + %d exec-failed, driver matched %d committed",
			e, per, refused, st.Txs, st.Committed, st.Aborted, st.ExecutionFailed, committed)
	}
	d.counts.attempted += per
	d.counts.committed += st.Committed
	d.counts.aborted += st.Aborted
	d.counts.execFailed += st.ExecutionFailed
	d.counts.epochs++
	rec := epochRecord{epoch: e, wall: done.Sub(start), committed: st.Committed, root: res.StateRoot}
	if d.tr != nil {
		rec.stages = st.Stages
	}
	d.records = append(d.records, rec)
	return nil
}

// runClosed pushes `epochs` epochs through back to back: one epoch in
// flight plus one look-ahead (mine e+1, then ProcessEpoch(e)), so the
// node's prevalidation and prefetch of e+1 overlap e's commit as designed.
// atWarm is called once, between warm-up and the measured epochs.
func (d *driver) runClosed(epochs, warmup int, atWarm func()) error {
	if err := d.mineEpoch(); err != nil {
		return err
	}
	for i := 0; i < epochs; i++ {
		if i == warmup && atWarm != nil {
			atWarm()
		}
		e := d.processed + 1
		probe := hostProbe()
		id := d.tr.begin("driver.epoch", e)
		iterStart := time.Now()
		if i+1 < epochs {
			if err := d.mineEpoch(); err != nil {
				return err
			}
		}
		if err := d.processEpoch(e); err != nil {
			return err
		}
		d.tr.end(id)
		rec := &d.records[len(d.records)-1]
		rec.iter, rec.probe = time.Since(iterStart), probe
	}
	return nil
}

// runPaced offers `epochs` epochs open loop at `rate` transactions per
// second: transaction i is due at t0 + i/rate, a block leaves when its last
// transaction is due — never earlier, immediately if the driver is late —
// and each committed transaction is timed from its own due time, so a stall
// is charged to every transaction that waited behind it.
func (d *driver) runPaced(epochs int, rate float64) error {
	w := d.sys.w
	d.pacing, d.rate = true, rate
	d.pacedBase = d.nextBlock * blockSize
	d.latencies = make([]float64, 0, epochs*w.epochTxs())
	d.pacedT0 = time.Now()
	for k := 0; k < epochs*w.Chains; k++ {
		due := d.pacedT0.Add(time.Duration(float64((k+1)*blockSize-1) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		d.lateness = append(d.lateness, ms(time.Since(due)))
		if err := d.sendBlock(); err != nil {
			return err
		}
		// A completed epoch is the look-ahead for the one before it.
		if (k+1)%w.Chains == 0 && k+1 > w.Chains {
			if err := d.processEpoch(d.processed + 1); err != nil {
				return err
			}
		}
	}
	err := d.processEpoch(d.processed + 1)
	d.pacing = false
	return err
}

// snapshot is the cumulative state the per-segment metrics are differences
// of.
type snapshot struct {
	when    time.Time
	calls   [numCalls]time.Duration
	counts  counts
	records int
	mem     runtime.MemStats
	mvcc    mvcc.Stats
}

func (d *driver) snapshot() snapshot {
	s := snapshot{calls: d.calls, counts: d.counts, records: len(d.records)}
	s.mvcc, _ = d.sys.node.State().MVCCStats()
	runtime.ReadMemStats(&s.mem)
	s.when = time.Now()
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
