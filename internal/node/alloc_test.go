//go:build !race

// Not under the race detector: it allocates on its own account, and the
// machine states vm.Execute pools are dropped from their sync.Pool there.

package node

import (
	"runtime"
	"testing"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// TestEpochAllocationBudget bounds what one steady-state adopted epoch
// allocates per transaction, on the repo benchmark's two epoch shapes: 8
// blocks of 200 SmallBank calls at skew 1.0 (hot) and 4 at skew 0.2
// (uniform), 10 000 accounts. The node is kept an epoch ahead, so each
// measured window is ProcessEpoch(e) — adopt, publish, flush — plus the
// look-ahead run for e+1 it starts — dedupe, execute, schedule, write
// batch, stage — waited for to the end. A measurement is the total over ten
// such windows after four of warm-up, per transaction, and the figure is the
// least of three: the trie's commit fan-out hands subtrees to whichever
// hasher is free, so which hasher's arena outgrows its chunk in a window
// depends on scheduling, and a loaded host only adds to it (one measurement,
// with three test packages running at once on two cores, read 2 087 bytes
// on uniform; the least of three read at most 757 on hot and 1 749 on
// uniform that way). The object counts do not move. Bounded at the measured
// value ×1.25: the medians of 21 runs at -cpu 1, 2 and 4 are 660 bytes and
// 3.20 objects on hot, 1 606 and 8.58 on uniform (the parent reads 1 658 /
// 7.72 and 2 820 / 12.68); hot's object bound, 3.95, was set at ×1.25 of
// 3.15 before the value slabs became fixed-size and is kept.
//
// What is left is what an epoch hands on: its Schedule, its write values
// (kept by the MVCC version store), the version chains' growth, the trie's
// new nodes and the store's records. Read and write sets allocated per call
// again break the object bound (6.2 per transaction on hot), and the
// scheduler's arrays rebuilt per call break the byte bound (1 270 on hot).
// One per-epoch slab on its own — the result slab, the dedupe set, the run's
// transaction copies, 60–120 bytes per transaction each — fits the ×1.25
// slack; the allocation profile in EXPERIMENTS.md is where those show.
func TestEpochAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name           string
		chains         int
		skew           float64
		bytes, objects float64 // per transaction
	}{
		{"hot", 8, 1.0, 825, 3.95},
		{"uniform", 4, 0.2, 2_008, 10.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bytes, objects := epochAllocations(t, tc.chains, tc.skew)
			for range 2 {
				b, o := epochAllocations(t, tc.chains, tc.skew)
				bytes, objects = min(bytes, b), min(objects, o)
			}
			t.Logf("%s: %.0f bytes, %.2f objects per transaction", tc.name, bytes, objects)
			if bytes > tc.bytes {
				t.Errorf("%.0f bytes allocated per transaction, budget %.0f", bytes, tc.bytes)
			}
			if objects > tc.objects {
				t.Errorf("%.2f objects allocated per transaction, budget %.2f", objects, tc.objects)
			}
		})
	}
}

// epochAllocations returns the bytes and objects allocated per transaction
// over the measured epochs of TestEpochAllocationBudget.
func epochAllocations(t *testing.T, chains int, skew float64) (bytes, objects float64) {
	const perBlock, warm, measured = 200, 4, 10
	epochs := warm + measured + 1
	gen, err := workload.NewGenerator(workload.Config{Seed: 1, Accounts: 10_000, Skew: skew, InitialBalance: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(chains * perBlock * epochs)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		t.Fatal(err)
	}
	node := func(id string) *Node {
		n, err := New(id, kvstore.NewMemory(), Config{
			Consensus:     consensus.Params{Chains: chains},
			Scheduler:     core.MustNewScheduler(core.DefaultConfig()),
			Workers:       2,
			Contracts:     smallbank.Contracts(),
			GenesisWrites: genesis,
			Mempool:       mempool.Config{ShardCap: -1, SenderCap: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	root := node("budget-genesis").StateRoot()
	l := newScriptedLedger(t, chains)
	roots := make([]types.Hash, chains)
	for c := range roots {
		roots[c] = root
	}
	for e := 0; e < epochs; e++ {
		blocks := make([][]*types.Transaction, chains)
		for c := range blocks {
			at := (e*chains + c) * perBlock
			blocks[c] = txs[at : at+perBlock : at+perBlock]
		}
		l.epoch(roots, blocks)
	}

	n := node("budget")
	before := lookaheadOutcomes(n)
	var allocated, mallocs, measuredTxs uint64
	var m0, m1 runtime.MemStats
	l.submit(n, 1)
	for e := uint64(1); e < uint64(epochs); e++ {
		l.submit(n, e+1)
		runtime.ReadMemStats(&m0)
		res, err := n.ProcessEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		pendingRun(t, n)
		runtime.ReadMemStats(&m1)
		if e > warm {
			allocated += m1.TotalAlloc - m0.TotalAlloc
			mallocs += m1.Mallocs - m0.Mallocs
			measuredTxs += uint64(res.Stats.Txs)
		}
	}
	if got := lookaheadOutcomes(n).sub(before); got.adopted != epochs-2 {
		t.Fatalf("look-ahead outcomes %+v: the measured epochs must all adopt", got)
	}
	return float64(allocated) / float64(measuredTxs), float64(mallocs) / float64(measuredTxs)
}
