package core

import (
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// smallBankSims generates one epoch of SmallBank simulation results at the
// given Zipfian skew via the workload fast path.
func smallBankSims(t *testing.T, seed int64, n int, skew float64) []*types.SimResult {
	return smallBankSimsN(t, seed, n, skew, 2_000)
}

func smallBankSimsN(t *testing.T, seed int64, n int, skew float64, accounts uint64) []*types.SimResult {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed: seed, Accounts: accounts, Skew: skew, InitialBalance: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(n)
	for i, tx := range txs {
		tx.ID = types.TxID(i)
	}
	snap, err := gen.Snapshot(txs)
	if err != nil {
		t.Fatal(err)
	}
	sims, err := workload.Simulate(txs, snap)
	if err != nil {
		t.Fatal(err)
	}
	return sims
}

// TestStatelessTxSequencedInSorter pins the satellite fix: a transaction
// with no reads and no writes gets initialSeq from the sorter itself
// (sorter.finish), not from a post-hoc patch in Schedule, and commits in
// the first group alongside conflict-free peers.
func TestStatelessTxSequencedInSorter(t *testing.T) {
	sims := []*types.SimResult{
		{Tx: &types.Transaction{ID: 0}}, // stateless
		simRW(1, []types.Key{key(7)}, []types.Key{key(8)}),
		{Tx: &types.Transaction{ID: 2}}, // stateless
	}
	out, _, err := MustNewScheduler(DefaultConfig()).Schedule(sims)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.TxID{0, 2} {
		if out.Seqs[id] != initialSeq {
			t.Fatalf("stateless tx %d seq = %d, want %d", id, out.Seqs[id], initialSeq)
		}
	}
	if out.AbortedCount() != 0 {
		t.Fatal("aborts on a conflict-free epoch")
	}
}
