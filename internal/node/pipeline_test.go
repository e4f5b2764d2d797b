package node

import (
	"context"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// mineAhead mines and submits `epochs` complete epochs WITHOUT processing
// them, so later processing sees a backlog — the shape the cross-epoch
// prevalidation overlap needs.
func mineAhead(t *testing.T, n *Node, m *Miner, epochs uint64) {
	t.Helper()
	ctx := context.Background()
	for i := 0; !n.Ledger().EpochReady(epochs, 0); i++ {
		if i > 10_000 {
			t.Fatal("epochs refuse to complete")
		}
		b, err := m.Mine(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SubmitBlock(b); err != nil && !isStale(err) {
			t.Fatal(err)
		}
	}
}

// TestStagesRecordedConcurrent: the concurrent pipeline reports its four
// named stages, with the by-name lookup and the total derived from them and
// task counts matching the epoch.
func TestStagesRecordedConcurrent(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 11, Accounts: 200, Skew: 0.3, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(150)
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	n, err := New("stages", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(9), 75)
	preload(t, miner, txs)
	growEpochs(t, n, []*Miner{miner}, 1)

	epochs := n.Metrics().Epochs()
	if len(epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	for _, es := range epochs {
		want := []string{"validate", "execute", "schedule", "commit"}
		if len(es.Stages) != len(want) {
			t.Fatalf("epoch %d: %d stages recorded, want %d", es.Epoch, len(es.Stages), len(want))
		}
		var total time.Duration
		for i, name := range want {
			if es.Stages[i].Name != name || es.Stage(name) != es.Stages[i] {
				t.Fatalf("epoch %d stage %d = %q, want %q; Stage(%q) = %+v", es.Epoch, i, es.Stages[i].Name, name, name, es.Stage(name))
			}
			total += es.Stages[i].Duration
		}
		if es.Total() != total || es.Stage("execute").Duration <= 0 {
			t.Fatalf("epoch %d: Total() = %v, stages sum to %v: %+v", es.Epoch, es.Total(), total, es.Stages)
		}
		if es.Stages[1].Tasks != es.Txs {
			t.Fatalf("epoch %d: execute stage saw %d tasks, epoch has %d txs", es.Epoch, es.Stages[1].Tasks, es.Txs)
		}
		if es.Txs > 0 && es.Stages[1].Busy <= 0 {
			t.Fatalf("epoch %d: execute stage recorded no busy time", es.Epoch)
		}
		if es.Stages[1].Workers < 1 || es.Stages[1].Workers > cfg.Workers {
			t.Fatalf("epoch %d: execute stage workers = %d", es.Epoch, es.Stages[1].Workers)
		}
	}

	// The aggregated summary carries the same stage names.
	sum := n.Metrics().Summarize()
	if len(sum.Stages) != 4 || sum.Stages[0].Name != "validate" {
		t.Fatalf("summary stages: %+v", sum.Stages)
	}
}

// TestStagesRecordedSerial: the serial baseline runs validate+serial, its
// time is reported as the serial stage's (no invented execute/commit
// split), and Total() covers it.
func TestStagesRecordedSerial(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 12, Accounts: 100, Skew: 0, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(40)
	cfg := testConfig(1, nil) // nil scheduler selects the serial baseline
	cfg.VerifySchedules = false
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	n, err := New("serial-stages", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(2), 40)
	preload(t, miner, txs)
	growEpochs(t, n, []*Miner{miner}, 1)

	es := n.Metrics().Epochs()[0]
	if len(es.Stages) != 2 || es.Stages[0].Name != "validate" || es.Stages[1].Name != "serial" {
		t.Fatalf("serial stages: %+v", es.Stages)
	}
	serial := es.Stage("serial")
	if serial.Duration <= 0 || serial.Tasks != 40 || es.Total() != es.Stages[0].Duration+serial.Duration {
		t.Fatalf("serial stage %+v, total %v", serial, es.Total())
	}
	if es.Stage("execute") != (metrics.StageStat{}) || es.Stage("commit") != (metrics.StageStat{}) {
		t.Fatalf("a serial epoch reports stages it did not run: %+v", es.Stages)
	}
}

// TestSerialEpochAllocationBudget: the serial baseline reads the live
// StateDB, so a transaction costs what executing and committing it costs —
// about 43 allocations here. Building a snapshot handle per transaction (a
// trie handle and sixteen maps) made that 213 and inflated every
// serial-vs-Nezha speed-up the benches report; the budget sits between.
func TestSerialEpochAllocationBudget(t *testing.T) {
	const perEpoch, runs, budget = 200, 5, 80
	gen, err := workload.NewGenerator(workload.Config{Seed: 19, Accounts: 2_000, InitialBalance: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(perEpoch * (runs + 1)) // AllocsPerRun warms up with one extra call
	cfg := testConfig(1, nil)
	cfg.VerifySchedules = false
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	n, err := New("serial-allocs", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch := 0
	perTx := testing.AllocsPerRun(runs, func() {
		block := &types.Block{
			Header: types.BlockHeader{Height: n.NextEpoch(), StateRoot: n.StateRoot()},
			Txs:    txs[epoch*perEpoch : (epoch+1)*perEpoch],
		}
		epoch++
		res, err := n.ProcessAssembledEpoch([]*types.Block{block})
		if err != nil || res.Stats.Committed != perEpoch {
			t.Fatalf("serial epoch %d: %v, %+v", epoch, err, res)
		}
	}) / perEpoch
	t.Logf("%.1f allocations per serial transaction", perTx)
	if perTx > budget {
		t.Fatalf("a serial transaction costs %.1f allocations, budget %d", perTx, budget)
	}
}

// TestPrevalidationOverlap: with a backlog of signed epochs, the commit of
// epoch e prevalidates epoch e+1's signatures in the background, and the
// next validate stage consumes the verdicts (reporting the overlapped
// time) — while producing the exact same state roots as a node processing
// the same blocks with no backlog (and therefore no overlap).
func TestPrevalidationOverlap(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 13, Accounts: 120, Skew: 0.2, InitialBalance: 1_000, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(240)
	mkNode := func(id string) (*Node, *Miner) {
		cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
		cfg.VerifySignatures = true
		if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
			t.Fatal(err)
		}
		n, err := New(id, kvstore.NewMemory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(n, types.AddressFromUint64(3), 60)
		preload(t, m, txs)
		return n, m
	}

	// Overlapped node: mine the whole backlog, then process it in one go.
	n1, m1 := mkNode("overlap")
	mineAhead(t, n1, m1, 4)
	results, err := n1.ProcessReadyEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 4 {
		t.Fatalf("processed %d epochs, want >= 4", len(results))
	}
	overlapped := 0
	for _, res := range results[1:] { // epoch 1 has no preceding commit
		if len(res.Stats.Stages) == 0 || res.Stats.Stages[0].Name != "validate" {
			t.Fatalf("epoch %d: missing validate stage", res.Epoch)
		}
		if res.Stats.Stages[0].Overlap > 0 {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatal("no epoch consumed a background prevalidation")
	}

	// Lockstep node: identical blocks, processed as they arrive, so every
	// signature check runs inline. Roots must match epoch for epoch.
	n2, m2 := mkNode("lockstep")
	growEpochs(t, n2, []*Miner{m2}, uint64(len(results)))
	for _, res := range results {
		if root, ok := n2.roots[res.Epoch]; !ok || root != res.StateRoot {
			t.Fatalf("epoch %d: overlapped root %x != lockstep root %x", res.Epoch, res.StateRoot, root)
		}
	}
}

// TestPrevalidationCatchesForgery: a forged transaction in a backlogged
// epoch is caught by the background prevalidation path too — the block is
// discarded exactly as the inline path would.
func TestPrevalidationCatchesForgery(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 14, Accounts: 80, Skew: 0, InitialBalance: 1_000, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(120)
	// Forge a transaction that will land in a later block: content no
	// longer matches its signature.
	txs[100].Value++

	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	cfg.VerifySignatures = true
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	n, err := New("forged", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(7), 40)
	preload(t, miner, txs)
	mineAhead(t, n, miner, 3)
	results, err := n.ProcessReadyEpochs()
	if err != nil {
		t.Fatal(err)
	}
	discarded := 0
	for _, res := range results {
		discarded += len(res.Discarded)
	}
	if discarded != 1 {
		t.Fatalf("%d blocks discarded, want exactly the forged one", discarded)
	}
}

// TestPipelineCommitStageOccupancy: the commit stage reports the width its
// trie flush actually used — the node's Workers on an epoch large enough to
// fan out, one below the threshold — and a busy span that makes its
// occupancy a number in (0, 1] instead of a constant 0. The second epoch was
// already in the ledger when the first committed, so it adopts the look-ahead
// run: same task counts, the run's time reported as overlap.
func TestPipelineCommitStageOccupancy(t *testing.T) {
	for _, tc := range []struct {
		name      string
		perBlock  int
		wantWidth int
	}{{"fanned-out", 400, 4}, {"inline", 20, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := workload.NewGenerator(workload.Config{Seed: 18, Accounts: 5_000, InitialBalance: 1_000})
			if err != nil {
				t.Fatal(err)
			}
			txs := gen.Txs(2 * tc.perBlock)
			cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
			if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
				t.Fatal(err)
			}
			n, err := New("occupancy-"+tc.name, kvstore.NewMemory(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			miner := NewMiner(n, types.AddressFromUint64(9), tc.perBlock)
			preload(t, miner, txs)
			mineAhead(t, n, miner, 2)
			before := lookaheadOutcomes(n)
			if _, err := n.ProcessReadyEpochs(); err != nil {
				t.Fatal(err)
			}
			if got := lookaheadOutcomes(n).sub(before); got != (outcomes{adopted: 1, none: 1}) {
				t.Fatalf("look-ahead outcomes over two epochs: %+v, want the second to adopt", got)
			}
			epochs := n.Metrics().Epochs()
			if len(epochs) != 2 || epochs[0].Txs != tc.perBlock {
				t.Fatalf("epochs: %+v", epochs)
			}
			for _, es := range epochs {
				commit := es.Stages[3]
				if occ := commit.Occupancy(); commit.Workers != tc.wantWidth || occ <= 0 || occ > 1 {
					t.Fatalf("epoch %d: commit stage ran %d wide (want %d) at occupancy %.3f, busy %v of %v",
						es.Epoch, commit.Workers, tc.wantWidth, occ, commit.Busy, commit.Duration)
				}
			}
			if first := epochs[0]; first.Stage("execute").Overlap != 0 || first.Stage("schedule").Overlap != 0 {
				t.Fatalf("epoch 1 reports overlap with no epoch before it: %+v", first.Stages)
			}
			exec, sched := epochs[1].Stage("execute"), epochs[1].Stage("schedule")
			if exec.Tasks != epochs[1].Txs || exec.Busy <= 0 || sched.Tasks == 0 {
				t.Fatalf("the adopting epoch's stages do not report the run's work: execute %+v, schedule %+v", exec, sched)
			}
		})
	}
}
