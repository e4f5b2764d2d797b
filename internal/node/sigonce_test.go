package node

import (
	"context"
	"testing"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/crypto"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// sigVerifications reads nezha_sig_verifications_total{outcome}. The series
// is process-wide, so tests compare it before and after (none of this
// package's tests run in parallel).
func sigVerifications(outcome string) int {
	return int(crypto.SigCounter(outcome).Value())
}

// signedPoolNode builds a verifying node fed by a verifying mempool, with
// the generator's accounts funded.
func signedPoolNode(t *testing.T, id string, gen *workload.Generator, txs []*types.Transaction) *Node {
	t.Helper()
	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	cfg.VerifySignatures = true
	var err error
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	cfg.Mempool.StrictNonce = true
	cfg.Mempool.VerifySignatures = true
	n, err := New(id, kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSignaturesVerifiedExactlyOnce: N transactions admitted through the
// pool, mined, submitted and processed cost N Ed25519 verifications in
// total — admission's — and the same blocks arriving as bytes at a node
// that never saw them cost exactly N more.
func TestSignaturesVerifiedExactlyOnce(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 21, Accounts: 150, Skew: 0.2, InitialBalance: 1_000,
		ReadOnlyRatio: -1, PerSenderNonces: true, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 240
	txs := gen.Txs(total)
	n1 := signedPoolNode(t, "once-admit", gen, txs)
	miner := NewMiner(n1, types.AddressFromUint64(5), 60)

	full0, bad0 := sigVerifications("full"), sigVerifications("bad")
	preload(t, miner, txs)
	if got := sigVerifications("full") - full0; got != total {
		t.Fatalf("admission ran %d full verifications for %d transactions", got, total)
	}
	// Mine the whole backlog first so every epoch after the first is
	// prevalidated in the background, then process; then a lockstep tail.
	mineAhead(t, n1, miner, 3)
	if _, err := n1.ProcessReadyEpochs(); err != nil {
		t.Fatal(err)
	}
	growEpochs(t, n1, []*Miner{miner}, 4)
	if miner.PoolSize() != 0 {
		t.Fatalf("%d transactions never left the pool", miner.PoolSize())
	}
	if got := sigVerifications("full") - full0; got != total {
		t.Fatalf("admission→commit ran %d full verifications for %d transactions", got, total)
	}
	if got := sigVerifications("bad") - bad0; got != 0 {
		t.Fatalf("%d honest signatures rejected", got)
	}

	// The peer and restore path: the same blocks as bytes.
	n2 := signedPoolNode(t, "once-peer", gen, txs)
	mined := 0
	for e := uint64(1); e < n1.NextEpoch(); e++ {
		blocks, ok := n1.Ledger().EpochBlocks(e)
		if !ok {
			t.Fatalf("epoch %d missing from the ledger", e)
		}
		for _, b := range blocks {
			wire, err := types.DecodeBlock(types.EncodeBlock(b))
			if err != nil {
				t.Fatal(err)
			}
			for _, tx := range wire.Txs {
				if tx.SigVerified() {
					t.Fatal("decoded transaction carries a verdict")
				}
			}
			mined += len(wire.Txs)
			if err := n2.SubmitBlock(wire); err != nil {
				t.Fatal(err)
			}
		}
	}
	if mined != total {
		t.Fatalf("%d transactions mined, want %d", mined, total)
	}
	full1 := sigVerifications("full")
	if _, err := n2.ProcessReadyEpochs(); err != nil {
		t.Fatal(err)
	}
	if got := sigVerifications("full") - full1; got != total {
		t.Fatalf("decoded blocks cost %d full verifications, want %d", got, total)
	}
	if n2.NextEpoch() != n1.NextEpoch() || n2.StateRoot() != n1.StateRoot() {
		t.Fatalf("peer at epoch %d root %s, origin at epoch %d root %s",
			n2.NextEpoch(), n2.StateRoot().Short(), n1.NextEpoch(), n1.StateRoot().Short())
	}
}

// TestForgedSignatureUnderHonestHash: a transaction's hash does not cover
// its signature, so a block can carry a twin of an admitted transaction —
// same hash, copied verdict words and all — with a corrupted or a foreign
// key's signature. The node whose pool admitted the honest original must
// still discard that block.
func TestForgedSignatureUnderHonestHash(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 22, Accounts: 60, Skew: 0, InitialBalance: 1_000,
		ReadOnlyRatio: -1, PerSenderNonces: true, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(40)
	forge := map[string]func(twin *types.Transaction){
		"corrupted": func(twin *types.Transaction) {
			twin.Sig = append([]byte(nil), twin.Sig...)
			twin.Sig[70] ^= 0x04
		},
		"foreign key": func(twin *types.Transaction) {
			from := twin.From
			crypto.KeyForAccount(1 << 40).SignTx(twin)
			twin.From = from
		},
	}
	for name, corrupt := range forge {
		t.Run(name, func(t *testing.T) {
			n := signedPoolNode(t, "twin-"+name, gen, txs)
			miner := NewMiner(n, types.AddressFromUint64(6), 40)
			if admitted, _ := miner.Pool().AdmitBatch(txs); admitted != len(txs) {
				t.Fatalf("admitted %d of %d", admitted, len(txs))
			}
			body := append([]*types.Transaction(nil), txs...)
			twin := *txs[7]
			corrupt(&twin)
			if twin.Hash() != txs[7].Hash() {
				t.Fatal("the twin must keep the honest hash")
			}
			body[7] = &twin
			b, err := consensus.Mine(context.Background(), consensus.Template{
				Ledger: n.Ledger(), StateRoot: n.StateRoot(), Txs: body,
				Miner: types.AddressFromUint64(6), Time: 1, NonceSeed: 1,
			}, n.cfg.Consensus)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.SubmitBlock(b); err != nil {
				t.Fatal(err)
			}
			res, err := n.ProcessEpoch(n.NextEpoch())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Discarded) != 1 || res.Discarded[0] != b.Hash() || res.Stats.Txs != 0 {
				t.Fatalf("forged block not discarded: discarded %v, %d transactions processed", res.Discarded, res.Stats.Txs)
			}
			if !txs[7].SigVerified() || twin.SigVerified() {
				t.Fatal("the honest transaction keeps its verdict and the twin gets none")
			}
		})
	}
}

// BenchmarkValidateCarried is the validate stage on a 800-transaction
// signed epoch whose transactions were admitted upstream: the cost the node
// still pays per epoch for signatures someone else already checked.
func BenchmarkValidateCarried(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 23, Accounts: 10_000, Skew: 0.2, InitialBalance: 1_000,
		ReadOnlyRatio: -1, PerSenderNonces: true, Sign: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig(4, core.MustNewScheduler(core.DefaultConfig()))
	cfg.VerifySignatures = true
	n, err := New("validate-carried", kvstore.NewMemory(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]*types.Block, 4)
	for i := range blocks {
		txs := gen.Txs(200)
		if errs := crypto.VerifyTxsOnce(txs, 2); errs == nil {
			b.Fatal("generated transactions already carried verdicts")
		}
		blocks[i] = &types.Block{Header: types.BlockHeader{Height: 1, Nonce: uint64(i), StateRoot: n.StateRoot()}, Txs: txs}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		er := &epochRun{number: 1, blocks: append([]*types.Block(nil), blocks...),
			stats: &metrics.EpochStats{}, res: &EpochResult{}}
		var ss metrics.StageStat
		if err := n.validateStage(er, &ss); err != nil {
			b.Fatal(err)
		}
		if len(er.epoch.Txs) != 800 {
			b.Fatalf("%d of 800 transactions survived validation", len(er.epoch.Txs))
		}
	}
}
