package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/crypto"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
	wl "github.com/nezha-dag/nezha/internal/workload"
)

// tracedRun produces the per-layer ledger. It replays the first TraceEpochs
// epochs three ways: an untraced node pass (the reference goodput), a
// traced node pass on fresh inputs (spans around every public call, the
// store decorated with counters, then a short paced segment), and a layer
// pass that re-runs the traced node's own epochs stage by stage on a fresh
// statedb and must arrive at the node's root after every epoch.
func tracedRun(w *workload, seed int64, sz sizing, tmp, tracePath string) (*runResult, error) {
	probeAlloc() // measured now, while nothing else allocates
	total := (sz.TraceEpochs + sz.TracePacedEpochs) * w.epochTxs()
	measured := func(d *driver, warm, end snapshot) (recs []epochRecord, goodput float64) {
		// At reference host speed (probe.go): the two passes this compares
		// run one after the other on a host whose speed wanders.
		recs = d.records[warm.records:end.records]
		var wall float64
		for i, f := range hostScale(recs) {
			wall += recs[i].iter.Seconds() * f
		}
		return recs, float64(end.counts.committed-warm.counts.committed) / wall
	}

	// Untraced reference. Its inputs are thrown away afterwards: a second
	// pass over the same transaction objects would find their hashes
	// memoized and look faster than it is.
	in, sys, _, err := setUp(w, seed, total, tmp, nil)
	if err != nil {
		return nil, err
	}
	ref := newDriver(sys, in.txs, nil)
	var refWarm snapshot
	err = ref.runClosed(sz.TraceEpochs, sz.WarmupEpochs, func() { refWarm = ref.snapshot() })
	refEnd := ref.snapshot()
	sys.close()
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	refRecs, refGoodput := measured(ref, refWarm, refEnd)
	refSlices := sliceGoodput(refRecs, hostScale(refRecs), 5)

	// Traced node pass.
	cs := &countingStore{}
	in, sys, _, err = setUp(w, seed, total, tmp, func(s kvstore.Store) kvstore.Store { cs.Store = s; return cs })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	tr := newTracer()
	d := newDriver(sys, in.txs, tr)
	var (
		warm      snapshot
		warmStore storeStats
		warmWAL   float64
	)
	err = d.runClosed(sz.TraceEpochs, sz.WarmupEpochs, func() {
		warm, warmStore, warmWAL = d.snapshot(), cs.stats(), walBytes.Value()
	})
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	end, store, wal := d.snapshot(), cs.stats().sub(warmStore), walBytes.Value()-warmWAL
	recs, goodput := measured(d, warm, end)
	cc := end.counts.sub(warm.counts)
	if err := d.runPaced(sz.TracePacedEpochs, float64(w.PacedTPS)); err != nil {
		return nil, fmt.Errorf("traced paced segment: %w", err)
	}
	if err := checkAccounting(d, sz.TraceEpochs+sz.TracePacedEpochs); err != nil {
		return nil, err
	}

	res := newResult(w, seed, true)
	res.setCounts(d.counts, sys.node.StateRoot())
	txs, blocks, epochs := float64(cc.attempted), float64(cc.blocks), float64(cc.epochs)
	spent := func(c call) time.Duration { return end.calls[c] - warm.calls[c] }
	perTx := func(name string, t time.Duration) { res.set(name, us(t)/txs, cc.attempted) }

	perTx("mempool.admit_us_per_tx", spent(callAdmit))
	perTx("mempool.assemble_us_per_tx", spent(callAssemble))
	perTx("mempool.markincluded_us_per_tx", spent(callMarkIncluded))
	res.set("mempool.refused_share", float64(cc.refused)/txs, cc.attempted)
	res.set("consensus.mine_us_per_block", us(spent(callMine))/blocks, cc.blocks)
	res.set("dag.submit_us_per_block", us(spent(callSubmit))/blocks, cc.blocks)
	res.set("driver.steer_us_per_block", us(spent(callSteer))/blocks, cc.blocks)

	// The node's own account of each ProcessEpoch: its stages, what hid
	// under the previous commit, and what no stage claims.
	stage := map[string]time.Duration{}
	var overlap, staged, iter time.Duration
	for _, r := range recs {
		iter += r.iter
		for _, st := range r.stages {
			stage[st.Name] += st.Duration
			staged += st.Duration
			overlap += st.Overlap
		}
	}
	for _, name := range []string{"validate", "execute", "schedule", "prefetch", "commit"} {
		perTx("node."+name+"_us_per_tx", stage[name])
	}
	perTx("node.overlap_us_per_tx", overlap)
	perTx("node.unattributed_us_per_tx", spent(callProcess)-staged)
	var timedCalls time.Duration
	for c := call(0); c < numCalls; c++ {
		timedCalls += spent(c)
	}
	perTx("driver.other_us_per_tx", iter-timedCalls)
	res.set("driver.slice_goodput_drift", refSlices[len(refSlices)-1]/refSlices[0], len(refRecs))
	res.set("driver.trace_overhead_share", 1-goodput/refGoodput, len(recs))
	sort.Float64s(d.lateness)
	res.set("driver.gen_late_p95_ms", quantile(d.lateness, 0.95), len(d.lateness))
	if saturated(w, d.lateness) {
		res.Flags = append(res.Flags, "saturated")
	}

	mv := mvccDelta(end.mvcc, warm.mvcc)
	res.set("mvcc.cache_hit_share", ratio(float64(mv.Hits), float64(mv.Hits+mv.Misses)), int(mv.Hits+mv.Misses))
	// Over the whole pass, not the counted epochs: a key prefetched before
	// the warm-up mark and read after it would push the share above 1.
	res.set("mvcc.prefetch_hit_share", ratio(float64(end.mvcc.PrefetchHits), float64(end.mvcc.Prefetched)), int(end.mvcc.Prefetched))
	depth, chains := depthMean(mv)
	res.set("mvcc.chain_depth_mean", depth, chains)

	res.set("kvstore.get_calls_per_tx", float64(store.gets)/txs, int(store.gets))
	res.set("kvstore.apply_us_per_epoch", us(store.applyTime)/epochs, int(store.applies))
	res.set("kvstore.apply_ops_per_tx", float64(store.applyOps)/txs, int(store.applyOps))
	res.set("kvstore.bytes_written_per_tx", wal/txs, cc.attempted)
	var disk, tables float64
	if lsm, ok := cs.Store.(*kvstore.LSM); ok {
		n, err := dirBytes(sys.dir)
		if err != nil {
			return nil, err
		}
		disk, tables = float64(n), float64(lsm.TableCount())
	}
	res.set("kvstore.disk_bytes_per_tx", disk/float64(d.counts.attempted), d.counts.attempted)
	res.set("kvstore.tables", tables, 1)

	res.set("runtime.gc_pause_ms_total", float64(end.mem.PauseTotalNs-warm.mem.PauseTotalNs)/1e6, int(end.mem.NumGC-warm.mem.NumGC))
	res.set("runtime.gc_cycles", float64(end.mem.NumGC-warm.mem.NumGC), 1)
	_, probeObjects := probeAlloc()
	res.set("runtime.allocs_per_tx", (float64(end.mem.Mallocs-warm.mem.Mallocs)-probeObjects*epochs)/txs, cc.attempted)

	lp, err := layerPass(w, in, sys.node, sz.WarmupEpochs, sz.TraceEpochs, tmp)
	if err != nil {
		return nil, err
	}
	lp.report(res)
	res.set("node.execute_speedup", ratio(lp.execute.Seconds(), stage["execute"].Seconds()), lp.txs)

	if w.Durable {
		open, restore, err := reopen(w, in, sys)
		if err != nil {
			return nil, err
		}
		res.set("kvstore.open_ms", ms(open), 1)
		res.set("node.restore_ms", ms(restore), 1)
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	return res, nil
}

// walBytes is the LSM's own count of bytes appended to write-ahead logs,
// read from the registry it already exports to.
var walBytes = metrics.Default().Counter("nezha_lsm_wal_bytes_total",
	"Bytes appended to write-ahead logs (including framing).")

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mvccDelta(a, b mvcc.Stats) mvcc.Stats {
	d := mvcc.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		Prefetched: a.Prefetched - b.Prefetched, PrefetchHits: a.PrefetchHits - b.PrefetchHits,
	}
	for i := range d.DepthBuckets {
		d.DepthBuckets[i] = a.DepthBuckets[i] - b.DepthBuckets[i]
	}
	return d
}

// depthMean is the mean of the depth histogram, each chain counted at its
// bucket's upper bound (32 for the overflow bucket).
func depthMean(s mvcc.Stats) (mean float64, chains int) {
	var sum, n float64
	for i, c := range s.DepthBuckets {
		bound := 32.0
		if i < len(mvcc.DepthBuckets) {
			bound = mvcc.DepthBuckets[i]
		}
		sum += bound * float64(c)
		n += float64(c)
	}
	return ratio(sum, n), int(n)
}

// layerTotals sums what the layer pass measured over its counted epochs.
type layerTotals struct {
	txs, blocks, epochs int

	epochBlocks, newEpoch, verifySig, encode, decode time.Duration
	reads, execute, acg, rank, schedSeq, schedPar    time.Duration
	verifySched, commit, commitStore                 time.Duration

	sigChecks, readKeys, execFailed, scheduled, aborted int
	units, addrs, groups, rescued, writes               int
}

func (t *layerTotals) report(res *runResult) {
	txs := float64(t.txs)
	perTx := func(name string, d time.Duration) { res.set(name, us(d)/txs, t.txs) }
	res.set("dag.epoch_blocks_us_per_epoch", us(t.epochBlocks)/float64(t.epochs), t.epochs)
	perTx("types.new_epoch_us_per_tx", t.newEpoch)
	res.set("crypto.verify_us_per_tx", us(t.verifySig)/float64(t.sigChecks), t.sigChecks)
	perTx("rlp.encode_block_us_per_tx", t.encode)
	perTx("rlp.decode_block_us_per_tx", t.decode)
	res.set("mvcc.read_us_per_key", us(t.reads)/float64(t.readKeys), t.readKeys)
	perTx("vm.execute_us_per_tx", t.execute)
	res.set("vm.exec_failed_share", float64(t.execFailed)/txs, t.txs)
	perTx("core.acg_us_per_tx", t.acg)
	perTx("core.rank_us_per_tx", t.rank)
	sortTime := t.schedSeq - t.acg - t.rank
	if sortTime < 0 {
		sortTime = 0
	}
	perTx("core.sort_us_per_tx", sortTime)
	perTx("core.schedule_us_per_tx", t.schedPar)
	res.set("core.schedule_par_speedup", ratio(t.schedSeq.Seconds(), t.schedPar.Seconds()), t.epochs)
	res.set("core.acg_units_per_tx", float64(t.units)/txs, t.txs)
	res.set("core.acg_addrs_per_epoch", float64(t.addrs)/float64(t.epochs), t.epochs)
	res.set("core.groups_per_epoch", float64(t.groups)/float64(t.epochs), t.epochs)
	res.set("core.rescued_per_epoch", float64(t.rescued)/float64(t.epochs), t.epochs)
	res.set("core.abort_share", ratio(float64(t.aborted), float64(t.scheduled)), t.scheduled)
	perTx("core.verify_us_per_tx", t.verifySched)
	res.set("statedb.commit_us_per_write", ratio(us(t.commit), float64(t.writes)), t.writes)
	res.set("mpt.commit_us_per_write", ratio(us(t.commit-t.commitStore), float64(t.writes)), t.writes)
}

// layerPass re-runs epochs 1..epochs of src's ledger stage by stage on a
// fresh statedb over the workload's store kind, through public functions
// only, timing each layer alone on one goroutine. Its root after every
// epoch must equal src's: the layers timed are the work the node did.
// Epochs up to warmup run but are not counted.
func layerPass(w *workload, in *inputs, src *node.Node, warmup, epochs int, tmp string) (*layerTotals, error) {
	sys := &system{w: w}
	if err := sys.openFresh(tmp); err != nil {
		return nil, err
	}
	defer sys.close()
	cs := &countingStore{Store: sys.store}
	db := statedb.Open(cs, mpt.EmptyRoot)
	if _, err := db.Commit(in.genesis); err != nil {
		return nil, fmt.Errorf("layer pass: genesis: %w", err)
	}
	if want, _ := src.RootAt(0); db.Root() != want {
		return nil, fmt.Errorf("layer pass: genesis root %s, node has %s", db.Root().Short(), want.Short())
	}

	program := smallbank.Program()
	parallel := core.MustNewScheduler(core.DefaultConfig())
	seqCfg := core.DefaultConfig()
	seqCfg.Parallelism = 1
	sequential := core.MustNewScheduler(seqCfg)
	var signedCopy []*types.Transaction // unsigned workloads: one block, signed here, to price the layer

	t := &layerTotals{}
	since := func(acc *time.Duration, start time.Time) { *acc += time.Since(start) }
	for e := uint64(1); e <= uint64(epochs); e++ {
		// Uncounted epochs accumulate into a scratch struct.
		acc := t
		if int(e) <= warmup {
			acc = &layerTotals{}
		}

		start := time.Now()
		blocks, ok := src.Ledger().EpochBlocks(e)
		since(&acc.epochBlocks, start)
		if !ok {
			return nil, fmt.Errorf("layer pass: ledger has no epoch %d", e)
		}
		start = time.Now()
		ep := types.NewEpoch(e, blocks)
		since(&acc.newEpoch, start)
		acc.epochs++
		acc.blocks += len(blocks)
		acc.txs += len(ep.Txs)

		toVerify := ep.Txs
		if !w.Signed {
			if signedCopy == nil {
				signedCopy = signCopies(blocks[0].Txs)
			}
			toVerify = signedCopy
		}
		start = time.Now()
		for _, tx := range toVerify {
			if err := crypto.VerifyTx(tx); err != nil {
				return nil, fmt.Errorf("layer pass: epoch %d: %w", e, err)
			}
		}
		since(&acc.verifySig, start)
		acc.sigChecks += len(toVerify)

		for _, b := range blocks {
			start = time.Now()
			raw := types.EncodeBlock(b)
			since(&acc.encode, start)
			start = time.Now()
			back, err := types.DecodeBlock(raw)
			since(&acc.decode, start)
			if err != nil || back.Hash() != b.Hash() {
				return nil, fmt.Errorf("layer pass: epoch %d: block does not survive encode/decode: %v", e, err)
			}
		}

		// Reads first, cold, as the node's prefetcher meets them; then
		// execution finds them warm, as the node's execute stage does.
		view := db.View()
		var keys []types.Key
		for _, tx := range ep.Txs {
			keys = append(keys, smallbank.PredictCall(tx.Payload)...)
		}
		start = time.Now()
		for _, k := range keys {
			if _, err := view.Get(k); err != nil {
				return nil, fmt.Errorf("layer pass: epoch %d: read: %w", e, err)
			}
		}
		since(&acc.reads, start)
		acc.readKeys += len(keys)

		sims := make([]*types.SimResult, 0, len(ep.Txs))
		var execFailed []types.TxID
		start = time.Now()
		for _, tx := range ep.Txs {
			out, err := vm.Execute(program, vm.Context{
				Contract: tx.To, Caller: tx.From, Payload: tx.Payload, GasLimit: tx.Gas,
			}, view)
			if err != nil {
				execFailed = append(execFailed, tx.ID)
				continue
			}
			sims = append(sims, &types.SimResult{Tx: tx, Reads: out.Reads, Writes: out.Writes, GasUsed: out.GasUsed})
		}
		since(&acc.execute, start)
		acc.execFailed += len(execFailed)

		start = time.Now()
		acg := core.BuildACG(sims)
		since(&acc.acg, start)
		start = time.Now()
		core.RankAddresses(acg, core.RankMaxOutDegree)
		since(&acc.rank, start)
		acc.units += acg.NumUnits()
		acc.addrs += acg.NumAddresses()

		start = time.Now()
		seqSched, _, err := sequential.Schedule(sims)
		since(&acc.schedSeq, start)
		if err != nil {
			return nil, fmt.Errorf("layer pass: epoch %d: schedule: %w", e, err)
		}
		start = time.Now()
		sched, breakdown, err := parallel.Schedule(sims)
		since(&acc.schedPar, start)
		if err != nil {
			return nil, fmt.Errorf("layer pass: epoch %d: schedule: %w", e, err)
		}
		if !sched.Equal(seqSched) {
			return nil, fmt.Errorf("layer pass: epoch %d: parallel and sequential schedules differ", e)
		}
		acc.scheduled += len(sims)
		acc.aborted += sched.AbortedCount()
		acc.groups += len(sched.Groups())
		acc.rescued += breakdown.Rescued
		for _, id := range execFailed {
			sched.Abort(id, types.AbortExecution)
		}
		sched.NormalizeAborts()

		snapshot := make(map[types.Key][]byte)
		written := make(map[types.Key]struct{})
		for _, sim := range sims {
			for _, r := range sim.Reads {
				snapshot[r.Key] = r.Value
			}
			if sched.IsCommitted(sim.Tx.ID) {
				for _, wr := range sim.Writes {
					written[wr.Key] = struct{}{}
				}
			}
		}
		start = time.Now()
		err = core.VerifySchedule(snapshot, sims, sched)
		since(&acc.verifySched, start)
		if err != nil {
			return nil, fmt.Errorf("layer pass: epoch %d: %w", e, err)
		}

		before := cs.stats()
		start = time.Now()
		root, err := node.CommitSchedule(db, sims, sched, 0)
		since(&acc.commit, start)
		if err != nil {
			return nil, fmt.Errorf("layer pass: epoch %d: commit: %w", e, err)
		}
		inStore := cs.stats().sub(before)
		acc.commitStore += inStore.getTime + inStore.applyTime
		acc.writes += len(written)
		db.AdvanceWatermark()

		if want, _ := src.RootAt(e); root != want {
			return nil, fmt.Errorf("layer pass: epoch %d root %s, node has %s", e, root.Short(), want.Short())
		}
	}
	return t, nil
}

// signCopies returns signed copies of the given transactions, so the cost
// of crypto.VerifyTx can be priced on a workload whose node never calls it.
func signCopies(txs []*types.Transaction) []*types.Transaction {
	out := make([]*types.Transaction, len(txs))
	for i, tx := range txs {
		out[i] = &types.Transaction{To: tx.To, Nonce: tx.Nonce, Value: tx.Value, Gas: tx.Gas, Payload: tx.Payload}
		signTx(out[i], nil)
	}
	return out
}

// signTx signs tx as the generator's Sign option does: with the canonical
// key of the account named in the payload, which also becomes the sender.
// keys, when non-nil, holds every account's key already derived.
func signTx(tx *types.Transaction, keys []*crypto.Key) {
	call, err := wl.DecodeCall(tx.Payload)
	if err != nil {
		panic("benchmark: generator produced an undecodable payload: " + err.Error()) // never an input
	}
	var key *crypto.Key
	if keys != nil {
		key = keys[call.Acct1]
	} else {
		key = crypto.KeyForAccount(call.Acct1)
	}
	tx.From = key.Address()
	key.SignTx(tx)
}

// signAll signs the stream across GOMAXPROCS goroutines. The generator's
// own Sign option does the same work on one; set-up would otherwise take
// longer than the run it prepares.
func signAll(txs []*types.Transaction) {
	keys := make([]*crypto.Key, accounts)
	parallelFor(len(keys), func(i int) { keys[i] = crypto.KeyForAccount(uint64(i)) })
	parallelFor(len(txs), func(i int) { signTx(txs[i], keys) })
}

// parallelFor calls fn(i) for every i in [0, n), split into one contiguous
// range per processor, and returns when all are done.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
