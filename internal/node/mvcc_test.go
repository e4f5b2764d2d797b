package node

import (
	"bytes"
	"testing"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// fixMinerClock replaces the miner's wall clock with a deterministic
// counter so two runs mine byte-identical blocks (block time feeds the
// header hash, which feeds DAG chain assignment).
func fixMinerClock(m *Miner) {
	var tick uint64
	m.SetClock(func() uint64 {
		tick++
		return tick
	})
}

// refWorkload is the contended SmallBank stream the executor-reference
// tests run, with a node whose genesis funds it.
func refWorkload(t *testing.T, id string, count int) (*Node, []*types.Transaction) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 77, Accounts: 150, Skew: 0.6, InitialBalance: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(count)
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	n, err := New(id, kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, txs
}

// TestMVCCMatchesSnapshotMined mines a workload into epochs and runs
// each through the node's pipeline and the snapshot-copy executor
// reference (exec_ref_test.go): every transaction's read values, every
// schedule and every root must be identical — the node-level version of
// the differential internal/check sweeps across shapes.
func TestMVCCMatchesSnapshotMined(t *testing.T) {
	n, txs := refWorkload(t, "mvcc-mined", 400)
	ref, err := newExecRef(n)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(5), 50)
	fixMinerClock(miner)
	preload(t, miner, txs)
	// The whole backlog first, so the node's own epochs adopt look-ahead
	// runs while the reference executes each of them inline.
	mineAhead(t, n, miner, 4)
	for e := uint64(1); e <= 4; e++ {
		blocks, ok := n.Ledger().EpochBlocks(e)
		if !ok {
			t.Fatalf("epoch %d not assembled", e)
		}
		if err := ref.process(n, blocks); err != nil {
			t.Fatal(err)
		}
	}
	if sum := n.Metrics().Summarize(); sum.Committed == 0 || sum.Aborted == 0 {
		t.Fatalf("the comparison needs commits and aborts to mean anything: %+v", sum)
	}
}

// assembledEpoch cuts epoch e (0-based) of the stream into two 100-tx
// blocks carrying the node's current root.
func assembledEpoch(n *Node, txs []*types.Transaction, e int) []*types.Block {
	var blocks []*types.Block
	for c := 0; c < 2; c++ {
		blocks = append(blocks, &types.Block{
			Header: types.BlockHeader{
				Height:    n.NextEpoch(),
				StateRoot: n.StateRoot(),
				Miner:     types.AddressFromUint64(9),
			},
			Txs: txs[e*200+c*100 : e*200+(c+1)*100],
		})
	}
	return blocks
}

// TestMVCCMatchesSnapshotAssembled removes mining from the comparison: the
// node and the executor reference process the SAME externally-assembled
// epochs and must agree on every read, schedule and root.
func TestMVCCMatchesSnapshotAssembled(t *testing.T) {
	n, txs := refWorkload(t, "mvcc-assembled", 600)
	ref, err := newExecRef(n)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := ref.process(n, assembledEpoch(n, txs, e)); err != nil {
			t.Fatal(err)
		}
	}
}

// staleReader serves one cell as it was before the previous epoch and
// everything else live — a read path that missed a commit.
type staleReader struct {
	statedb.Reader
	key types.Key
	old []byte
}

func (s staleReader) Get(k types.Key) ([]byte, error) {
	if k == s.key {
		return s.old, nil
	}
	return s.Reader.Get(k)
}

// TestExecOracleBites is the meta-test: an executor that reads one cell
// stale — the fault a broken version chain or a missed reservation would
// produce — must be told apart by the reference, otherwise the two tests
// above pin nothing about what the MVCC view serves.
func TestExecOracleBites(t *testing.T) {
	n, txs := refWorkload(t, "mvcc-bites", 600)
	ref, err := newExecRef(n)
	if err != nil {
		t.Fatal(err)
	}
	pre := n.state.Snapshot()
	if err := ref.process(n, assembledEpoch(n, txs, 0)); err != nil {
		t.Fatalf("honest epoch: %v", err)
	}
	// Plant: a cell epoch 2 reads and epoch 1 changed, served at its
	// pre-epoch-1 value.
	var stale staleReader
	for _, tx := range txs[200:400] {
		for _, rd := range simulated(n, tx, n.state).Reads {
			old, err := pre.Get(rd.Key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(old, rd.Value) {
				stale.key, stale.old = rd.Key, old
			}
		}
	}
	if stale.old == nil {
		t.Fatal("epoch 2 reads nothing epoch 1 changed; the plant has no target")
	}
	ref.view = func(n *Node) statedb.Reader {
		stale.Reader = liveView(n)
		return stale
	}
	if err := ref.process(n, assembledEpoch(n, txs, 1)); err == nil {
		t.Fatal("a stale read goes unnoticed")
	}
}
