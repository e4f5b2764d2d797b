package node

import (
	"context"
	"testing"

	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/contracts/token"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/crypto"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/statedb"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// TestPipelineOverLSMStore runs the full pipeline against the durable LSM
// backend instead of the in-memory store — the configuration the paper's
// prototype actually ships (LevelDB underneath the MPT) — and reloads the
// committed state from disk afterwards.
func TestPipelineOverLSMStore(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{MemtableBytes: 1 << 16, CompactAt: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	gen, err := workload.NewGenerator(workload.Config{
		Seed: 2, Accounts: 500, Skew: 0.5, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(300)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.GenesisWrites = genesis
	n, err := New("lsm", store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(5), 100)
	preload(t, miner, txs)
	growEpochs(t, n, []*Miner{miner}, 1)
	if n.Metrics().Summarize().Committed == 0 {
		t.Fatal("nothing committed over LSM")
	}

	// The committed state must be reloadable from disk: reopen the same
	// directory and read a SmallBank cell back through a fresh state
	// database rooted at the final root.
	root := n.StateRoot()
	call, err := workload.DecodeCall(txs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	probe := smallbank.CheckingKey(call.Acct1)
	want, err := n.State().Get(probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := kvstore.OpenLSM(dir, kvstore.DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	db := statedb.Open(reopened, root)
	got, err := db.Get(probe)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("reloaded state %x != live state %x", got, want)
	}
}

// TestSignatureValidation: with VerifySignatures on, a properly signed
// workload processes normally and a block containing a forged transaction
// is discarded whole.
func TestSignatureValidation(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 4, Accounts: 50, Skew: 0, InitialBalance: 1_000, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(60)
	for _, tx := range txs {
		if err := crypto.VerifyTx(tx); err != nil {
			t.Fatalf("generator produced unverifiable tx: %v", err)
		}
	}
	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	cfg.VerifySignatures = true
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	n, err := New("sig", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(1), 30)
	preload(t, miner, txs[:30])
	growEpochs(t, n, []*Miner{miner}, 1)
	sum := n.Metrics().Summarize()
	if sum.Committed == 0 {
		t.Fatal("signed workload committed nothing")
	}

	// Forge one transaction inside the next block: the block must be
	// discarded by validation, not processed.
	forged := txs[30:60]
	forged[0].Value += 1 // content no longer matches its signature
	forged[0].Sig = append([]byte(nil), forged[0].Sig...)
	preload(t, miner, forged)
	b, err := miner.Mine(context.Background())
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
	if len(res.Discarded) != 1 {
		t.Fatalf("forged block not discarded: %+v", res.Discarded)
	}
	if res.Stats.Txs != 0 {
		t.Fatal("transactions from the forged block were processed")
	}
}

// TestTokenWorkloadPipeline runs the ERC20-style token workload through the
// full pipeline: token-supply conservation must hold across committed
// epochs, and under high skew some transfers revert (AbortExecution)
// without corrupting state.
func TestTokenWorkloadPipeline(t *testing.T) {
	gen, err := workload.NewTokenGenerator(workload.TokenConfig{
		Seed: 3, Accounts: 40, Skew: 0.9, InitialBalance: 50, MintRatio: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(300)
	genesis, err := gen.Genesis(txs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	cfg.Contracts[token.ContractAddress] = token.Program()
	cfg.GenesisWrites = genesis
	n, err := New("token", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(1), 150)
	preload(t, miner, txs)
	growEpochs(t, n, []*Miner{miner}, 1)

	sum := n.Metrics().Summarize()
	if sum.Committed == 0 {
		t.Fatal("nothing committed")
	}
	// With 40 accounts at balance 50 and transfer amounts up to 100,
	// reverts are essentially guaranteed across 300 attempts.
	if sum.Txs > 0 && n.Metrics().Epochs()[0].ExecutionFailed == 0 {
		t.Log("warning: no execution aborts observed (statistically unlikely)")
	}

	// Supply conservation: the sum of all balances equals the genesis
	// supply (transfers conserve; MintRatio is 0).
	var total uint64
	var genesisTotal uint64
	for _, w := range genesis {
		if w.Key == token.SupplyKey() {
			genesisTotal = workload.DecodeBalance(w.Value)
			continue
		}
		v, err := n.State().Get(w.Key)
		if err != nil {
			t.Fatal(err)
		}
		total += workload.DecodeBalance(v)
	}
	if total != genesisTotal {
		t.Fatalf("token supply not conserved: %d != %d", total, genesisTotal)
	}
}
