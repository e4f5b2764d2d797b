package nezha_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"github.com/nezha-dag/nezha/internal/bench"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/occda"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
	"github.com/nezha-dag/nezha/internal/workload"
)

// benchOpts shrinks experiments so a -bench=. pass stays tractable; run
// cmd/nezha-bench for the paper-parameter sweeps.
func benchOpts() bench.Options {
	o := bench.DefaultOptions().Quick()
	o.BlockSize = 100
	return o
}

// runExperiment wraps one table/figure regeneration per benchmark
// iteration.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := bench.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation (§VI).

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }

// Ablation benches (DESIGN.md A1–A4).

func BenchmarkAblationReorder(b *testing.B) { runExperiment(b, "ablation-reorder") }
func BenchmarkAblationRank(b *testing.B)    { runExperiment(b, "ablation-rank") }
func BenchmarkAblationCommit(b *testing.B)  { runExperiment(b, "ablation-commit") }
func BenchmarkAblationGraph(b *testing.B)   { runExperiment(b, "ablation-graph") }

// Micro benchmarks of the core algorithm at the paper's epoch sizes.

// benchSims builds one SmallBank epoch of n transactions for the micro
// benchmarks.
func benchSims(b *testing.B, n int, skew float64) []*types.SimResult {
	b.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 1, Accounts: 10_000, Skew: skew, InitialBalance: 10_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	txs := gen.Txs(n)
	for i, tx := range txs {
		tx.ID = types.TxID(i)
	}
	snap, err := gen.Snapshot(txs)
	if err != nil {
		b.Fatal(err)
	}
	sims, err := workload.Simulate(txs, snap)
	if err != nil {
		b.Fatal(err)
	}
	return sims
}

// The last shape is the repo benchmark's smallbank_hot epoch (1 600 tx at
// skew 1.0, ~40 000 violating pairs for the safety sweep): the only one
// here where hot-key cost, not epoch size, sets the time.
func BenchmarkNezhaSchedule(b *testing.B) {
	for _, cfg := range []struct {
		omega int
		skew  float64
	}{{2, 0}, {12, 0}, {12, 0.6}, {12, 0.8}, {8, 1.0}} {
		b.Run(fmt.Sprintf("omega=%d/skew=%.1f", cfg.omega, cfg.skew), func(b *testing.B) {
			sims := benchSims(b, cfg.omega*200, cfg.skew)
			sched := core.MustNewScheduler(core.DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Schedule(sims); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(sims)), "txs/epoch")
		})
	}
}

// BenchmarkBuildACG is the graph-construction phase alone on one 4096-tx
// epoch.
func BenchmarkBuildACG(b *testing.B) {
	sims := benchSims(b, 4096, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildACG(sims)
	}
}

func BenchmarkAblationWriteMix(b *testing.B) { runExperiment(b, "ablation-writemix") }

func BenchmarkOCCAbortComparison(b *testing.B) { runExperiment(b, "occ-abort") }

// smallBankState generates n SmallBank transactions over 2 000 accounts at
// the given skew and commits the cells they touch into a fresh StateDB.
func smallBankState(b *testing.B, n int, skew float64) ([]*types.Transaction, *statedb.StateDB) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 3, Accounts: 2_000, Skew: skew, InitialBalance: 10_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	txs := gen.Txs(n)
	seed, err := gen.GenesisWrites(txs)
	if err != nil {
		b.Fatal(err)
	}
	db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit(seed); err != nil {
		b.Fatal(err)
	}
	return txs, db
}

// BenchmarkMVCCRead compares the two execution read paths over one hot
// SmallBank working set: "view" resolves through the shared MVCC version
// cache (warm after the first pass — near-zero allocations), "snapshot"
// pays a fresh per-epoch state copy the way the legacy executor does. The
// alloc delta between the sub-benchmarks is the per-epoch copy the MVCC
// refactor removes; the benchstat gate holds both.
func BenchmarkMVCCRead(b *testing.B) {
	txs, db := smallBankState(b, 400, 0.6)
	var keys []types.Key
	for _, tx := range txs {
		keys = append(keys, smallbank.PredictCall(tx.Payload)...)
	}
	b.Run("view", func(b *testing.B) {
		db.View() // warm the store once so iterations measure steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := db.View()
			for _, k := range keys {
				if _, err := v.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(keys)), "reads/epoch")
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sn := db.Snapshot()
			for _, k := range keys {
				if _, err := sn.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(keys)), "reads/epoch")
	})
}

// BenchmarkVMExecute is the speculative-execution stage's inner loop: the
// SmallBank mix, one vm.Execute per iteration, reading through a warm MVCC
// view as an epoch's workers do. allocs/op is what a transaction's result
// costs (Result, the two sets, the write values).
func BenchmarkVMExecute(b *testing.B) {
	txs, db := smallBankState(b, 1_000, 0.2)
	view, program := db.View(), smallbank.Program()
	execute := func(tx *types.Transaction) {
		if _, err := vm.Execute(program, vm.Context{
			Contract: tx.To, Caller: tx.From, Payload: tx.Payload, GasLimit: tx.Gas,
		}, view); err != nil {
			b.Fatal(err)
		}
	}
	for _, tx := range txs {
		execute(tx) // warm the version cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execute(txs[i%len(txs)])
	}
}

// commitFixture is the state-commit micro-benchmark's input: a 20 000-cell
// genesis (the repo benchmark's state size) behind a StateDB with a live
// MVCC view, and a cycle of epoch-sized write sets — 950 distinct cells,
// 8-byte values, sorted by key the way the node's write batch hands them over.
func commitFixture(tb testing.TB) (*statedb.StateDB, [][]types.WriteEntry) {
	const cells, perCommit, batches = 20_000, 950, 32
	genesis := make([]types.WriteEntry, cells)
	for i := range genesis {
		genesis[i] = types.WriteEntry{Key: types.KeyFromUint64(uint64(i)), Value: make([]byte, 8)}
	}
	db := statedb.Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit(genesis); err != nil {
		tb.Fatal(err)
	}
	db.View()
	rng := rand.New(rand.NewSource(15))
	sets := make([][]types.WriteEntry, batches)
	for i := range sets {
		for _, cell := range rng.Perm(cells)[:perCommit] {
			value := binary.BigEndian.AppendUint64(nil, rng.Uint64()|1)
			sets[i] = append(sets[i], types.WriteEntry{Key: genesis[cell].Key, Value: value})
		}
		slices.SortFunc(sets[i], func(a, b types.WriteEntry) int { return a.Key.Compare(b.Key) })
	}
	return db, sets
}

// BenchmarkStateCommit prices one epoch's state commit end to end below
// the node: StateDB.Commit (MVCC versions, the trie's batch update, node
// encoding and hashing, the store flush) plus the watermark advance the
// node performs once the epoch is durable.
func BenchmarkStateCommit(b *testing.B) {
	db, sets := commitFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Commit(sets[i%len(sets)]); err != nil {
			b.Fatal(err)
		}
		db.AdvanceWatermark()
	}
	b.ReportMetric(float64(len(sets[0])), "writes/commit")
}

// TestCommitAllocationBudget bounds the same commit at 12 heap allocations
// per written key (the per-key trie path this replaced took 44: a copy of
// every node on every key's path, an rlp.Item tree per node, three copies
// of every encoding). What is left is a copy of each touched node, the
// value copies, the store's map keys and the MVCC versions; a per-node
// Item tree or a per-key path copy coming back would blow the budget.
func TestCommitAllocationBudget(t *testing.T) {
	db, sets := commitFixture(t)
	i := 0
	perCommit := testing.AllocsPerRun(len(sets), func() {
		if _, err := db.Commit(sets[i%len(sets)]); err != nil {
			t.Fatal(err)
		}
		db.AdvanceWatermark()
		i++
	})
	if perKey := perCommit / float64(len(sets[0])); perKey > 12 {
		t.Fatalf("state commit allocates %.1f objects per written key, budget 12", perKey)
	} else {
		t.Logf("state commit: %.1f allocations per written key", perKey)
	}
}

// BenchmarkOCCDA prices the dependency-aware hybrid at the paper's epoch
// sizes against the contention levels where plain OCC degrades — the
// rescue pass (PhaseBreakdown.Cycle) is the cost being bought.
func BenchmarkOCCDA(b *testing.B) {
	for _, cfg := range []struct {
		omega int
		skew  float64
	}{{2, 0}, {12, 0.6}, {12, 0.8}} {
		b.Run(fmt.Sprintf("omega=%d/skew=%.1f", cfg.omega, cfg.skew), func(b *testing.B) {
			sims := benchSims(b, cfg.omega*200, cfg.skew)
			sched := occda.NewScheduler()
			b.ReportAllocs()
			b.ResetTimer()
			var aborted int
			for i := 0; i < b.N; i++ {
				out, _, err := sched.Schedule(sims)
				if err != nil {
					b.Fatal(err)
				}
				aborted = out.AbortedCount()
			}
			b.ReportMetric(float64(len(sims)), "txs/epoch")
			b.ReportMetric(float64(aborted), "aborts/epoch")
		})
	}
}

// BenchmarkFailpointDisabled guards internal/fail's core promise from the
// benchstat PR gate: a disarmed failpoint site — and they sit on the WAL
// append, the persist path, and every p2p delivery — costs one atomic
// load, a few nanoseconds and zero allocations. A regression here taxes
// every hot path in the node.
func BenchmarkFailpointDisabled(b *testing.B) {
	fail.Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fail.Hit(fail.BenchDisarmed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalDisabled guards the flight recorder's parallel promise:
// with recording off, an Emit on the commit path costs one atomic load —
// the same budget as a disarmed failpoint — so the instrumentation can
// stay compiled into every stage handoff permanently.
func BenchmarkJournalDisabled(b *testing.B) {
	journal.Disable()
	r := journal.For("bench-disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(journal.NodeEpochCommit, uint64(i))
	}
}

// BenchmarkJournalEmit is the armed path: one atomic sequence
// reservation plus a slot-mutex payload copy, at most one allocation per
// event (the variadic field slice when it escapes).
func BenchmarkJournalEmit(b *testing.B) {
	journal.Enable()
	defer journal.Disable()
	r := journal.For("bench-armed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(journal.NodeEpochCommit, uint64(i),
			journal.F("root", uint64(i)*0x9e3779b9), journal.F("committed", 40))
	}
}

// BenchmarkMempoolAdmit is the ingestion front end's admission hot path:
// one transaction through the shard lookup, nonce-queue insert, and
// metric updates. This is per-transaction cost at the node's front door,
// so it joins the benchstat PR gate.
func BenchmarkMempoolAdmit(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 1, Accounts: 10_000, Skew: 0.6, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	txs := gen.Txs(b.N)
	p := mempool.New(mempool.Config{ShardCap: -1, SenderCap: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Admit(txs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStressAssemble measures block assembly out of a loaded pool —
// the peek that runs under the miner's lock every block: per-sender
// nonce runs ordered by priority, truncated to the block size.
func BenchmarkStressAssemble(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 2, Accounts: 2_000, Skew: 0.6, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := mempool.New(mempool.Config{ShardCap: -1, SenderCap: -1, StrictNonce: true})
	for _, tx := range gen.Txs(8_192) {
		if err := p.Admit(tx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Assemble(200); len(got) == 0 {
			b.Fatal("empty assembly from a loaded pool")
		}
	}
}

// BenchmarkStressAdmitBatch is the gossip-delivery shape: a 500-tx batch
// admitted in one call (the signature-verification fan-out is exercised
// by the mempool package's own tests; here signatures are off, matching
// the scheduler-focused benches).
func BenchmarkStressAdmitBatch(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 3, Accounts: 10_000, Skew: 0.6, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 500
	txs := gen.Txs(b.N*batch + batch)
	p := mempool.New(mempool.Config{ShardCap: -1, SenderCap: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, _ := p.AdmitBatch(txs[i*batch : (i+1)*batch]); n != batch {
			b.Fatalf("admitted %d of %d", n, batch)
		}
	}
}

// BenchmarkAdmitBatchSigned is the signed workload's admission shape: one
// 800-transaction epoch through a verifying pool, every object fresh, so
// each iteration pays 800 Ed25519 checks — the one verify a transaction
// costs between admission and commit — plus the verdict that spares the
// node a second one.
func BenchmarkAdmitBatchSigned(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 4, Accounts: 10_000, Skew: 0.2, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true, Sign: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 800
	signed := gen.Txs(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := make([]*types.Transaction, batch)
		for j, tx := range signed {
			cp := *tx // never verified, so the copy carries no verdict either
			fresh[j] = &cp
		}
		p := mempool.New(mempool.Config{ShardCap: -1, SenderCap: -1, VerifySignatures: true})
		b.StartTimer()
		if n, _ := p.AdmitBatch(fresh); n != batch {
			b.Fatalf("admitted %d of %d", n, batch)
		}
	}
}
