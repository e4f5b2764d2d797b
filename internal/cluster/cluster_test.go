package cluster

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// roundsUntil advances c until every member has processed epoch target,
// checking agreement after every round.
func roundsUntil(t *testing.T, c *Cluster, target uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, m := range c.Members {
		for m.Node.NextEpoch() <= target {
			if _, err := c.Round(ctx); err != nil {
				t.Fatalf("round: %v", err)
			}
			if err := c.Agree(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGossipNetworkConvergesOnRoots is the end-to-end integration test:
// several nodes mine concurrently (real fork pressure), gossip blocks over
// the simulated network, and must converge on identical state roots at
// every processed epoch.
func TestGossipNetworkConvergesOnRoots(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation")
	}
	const latency = 200 * time.Microsecond
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 13, Accounts: 2_000, Skew: 0.4, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(3_000)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		IDs:       []string{"n0", "n1", "n2"},
		Miners:    3,
		BlockSize: 50,
		Node: node.Config{
			Consensus:     consensus.Params{Chains: 3, DifficultyBits: 4},
			Contracts:     smallbank.Contracts(),
			GenesisWrites: genesis,
			ConfirmDepth:  3,
		},
		PerMember: Nezha,
		Fabric:    &p2p.Config{Latency: latency, Jitter: latency, QueueLen: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Preload(txs); err != nil {
		t.Fatal(err)
	}
	roundsUntil(t, c, 2)
	for _, m := range c.Members {
		if m.Node.Metrics().Summarize().Committed == 0 {
			t.Fatalf("%s committed nothing over two epochs", m.ID)
		}
	}
}

// TestAgreeNamesARecordedDivergence: one member records a wrong root for
// epoch 1 (node/diverge-root flips a bit of the recorded root, not of the
// state) and both members run well past it on empty epochs. Their head
// roots stay equal, so a head-only comparison passes; Agree must name the
// epoch and both roots.
func TestAgreeNamesARecordedDivergence(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	fail.Enable(fail.NodeDivergeRoot, fail.Spec{Mode: fail.ModeError, Tag: "full", Count: 1})

	c, err := New(Config{
		IDs:       []string{"miner", "full"},
		Miners:    1,
		BlockSize: 10,
		Node: node.Config{
			Consensus:    consensus.Params{Chains: 2},
			ConfirmDepth: 1,
		},
		PerMember: Nezha,
		Fabric:    &p2p.Config{QueueLen: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	miner, full := c.Members[0].Node, c.Members[1].Node
	for miner.NextEpoch() <= 4 || full.NextEpoch() <= 4 {
		if _, err := c.Round(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if miner.StateRoot() != full.StateRoot() {
		t.Fatal("head roots differ: the case no longer isolates a recorded divergence")
	}
	want, _ := miner.RootAt(1)
	got, _ := full.RootAt(1)
	err = c.Agree()
	if err == nil {
		t.Fatal("Agree passed over a divergent recorded root")
	}
	for _, s := range []string{"epoch 1:", want.Short(), got.Short()} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("Agree error %q does not name %q", err, s)
		}
	}
}

// TestPreloadIsLoud: a pool that refuses part of a preload (here, every
// transaction of a second identical preload) fails the preload.
func TestPreloadIsLoud(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 2, Accounts: 50, InitialBalance: 10})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(20)
	c, err := New(Config{
		IDs:       []string{"a"},
		Miners:    1,
		BlockSize: 10,
		Node: node.Config{
			Consensus: consensus.Params{Chains: 1},
			Mempool:   mempool.Config{ShardCap: -1, SenderCap: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Preload(txs); err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(txs); err == nil || !strings.Contains(err.Error(), "admitted 0 of 20") {
		t.Fatalf("a refused preload returned %v", err)
	}
}

// TestReopenRestoresPersistedMember: a full node over a persisted LSM store
// stops and comes back through Reopen at the same epoch with the same
// recorded roots, and Agree compares it from genesis again.
func TestReopenRestoresPersistedMember(t *testing.T) {
	dir := t.TempDir()
	gen, err := workload.NewGenerator(workload.Config{Seed: 4, Accounts: 200, Skew: 0.3, InitialBalance: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(300)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		IDs:       []string{"miner", "full"},
		Miners:    1,
		BlockSize: 50,
		Node: node.Config{
			Consensus:     consensus.Params{Chains: 2},
			Contracts:     smallbank.Contracts(),
			GenesisWrites: genesis,
			ConfirmDepth:  1,
			Persist:       true,
			Mempool:       mempool.Config{ShardCap: -1, SenderCap: -1},
		},
		PerMember: Nezha,
		Open: func(id string) (kvstore.Store, error) {
			return kvstore.OpenLSM(filepath.Join(dir, id), kvstore.DefaultLSMOptions())
		},
		Fabric: &p2p.Config{QueueLen: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Preload(txs); err != nil {
		t.Fatal(err)
	}
	roundsUntil(t, c, 3)

	full := c.Members[1]
	next := full.Node.NextEpoch()
	roots := make([]types.Hash, next)
	for e := range roots {
		roots[e], _ = full.Node.RootAt(uint64(e))
	}
	if err := full.Store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Reopen(full); err != nil {
		t.Fatal(err)
	}
	if full.Node.NextEpoch() != next {
		t.Fatalf("reopened at epoch %d, want %d", full.Node.NextEpoch(), next)
	}
	for e, want := range roots {
		if got, _ := full.Node.RootAt(uint64(e)); got != want {
			t.Fatalf("epoch %d: reopened root %s, want %s", e, got.Short(), want.Short())
		}
	}
	if c.agreed[1] != 0 {
		t.Fatal("Reopen kept the pair's agreement watermark")
	}
	if err := c.Agree(); err != nil {
		t.Fatal(err)
	}
}
