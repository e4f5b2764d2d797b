package node

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// TestMempoolFedMinerPipeline drives the full pipeline from a strict-nonce
// pool: transactions enter via batched admission, blocks assemble from the
// pool's deterministic order, and epochs commit as usual.
func TestMempoolFedMinerPipeline(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 7, Accounts: 500, Skew: 0.3, InitialBalance: 10_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(600)
	cfg := testConfig(3, core.MustNewScheduler(core.DefaultConfig()))
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	cfg.Mempool.StrictNonce = true
	n, err := New("mp-full", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(99), 100)
	preload(t, miner, txs)
	if got := miner.PoolSize(); got != 600 {
		t.Fatalf("pool = %d, want 600", got)
	}
	// Gossip echo: re-adding the same batch must not double-queue.
	if got := miner.AddTxs(txs); got != 0 || miner.PoolSize() != 600 {
		t.Fatalf("re-add admitted %d, pool = %d; want 0 and 600", got, miner.PoolSize())
	}

	growEpochs(t, n, []*Miner{miner}, 2)

	sum := n.Metrics().Summarize()
	if sum.Committed == 0 {
		t.Fatal("nothing committed through the mempool-fed path")
	}
	// Mined transactions advanced the inclusion floors: the pool shrank.
	if miner.PoolSize() >= 600 {
		t.Fatalf("pool never drained: %d", miner.PoolSize())
	}
}

// TestMempoolMinerConvergence replays every pool-assembled block into a
// second node that never mines: both must process identical epochs and
// agree on every state root — the pool only changes which transactions
// enter blocks, never how blocks execute.
func TestMempoolMinerConvergence(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 11, Accounts: 300, Skew: 0.4, InitialBalance: 5_000,
		ReadOnlyRatio: -1, PerSenderNonces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(400)
	build := func(id string) *Node {
		cfg := testConfig(4, core.MustNewScheduler(core.DefaultConfig()))
		if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
			t.Fatal(err)
		}
		cfg.Mempool.StrictNonce = true
		n, err := New(id, kvstore.NewMemory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1, n2 := build("mp-n1"), build("mp-n2")
	if n1.StateRoot() != n2.StateRoot() {
		t.Fatal("genesis roots differ")
	}

	miner := NewMiner(n1, types.AddressFromUint64(1), 50)
	preload(t, miner, txs)
	ctx := context.Background()
	for i := 0; !n1.Ledger().EpochReady(3, 0); i++ {
		if i > 5000 {
			t.Fatal("epochs refuse to complete")
		}
		b, err := miner.Mine(ctx)
		if err != nil {
			t.Fatal(err)
		}
		err1 := n1.SubmitBlock(b)
		err2 := n2.SubmitBlock(b)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nodes disagree on block validity: %v vs %v", err1, err2)
		}
		if _, err := n1.ProcessReadyEpochs(); err != nil {
			t.Fatal(err)
		}
		if _, err := n2.ProcessReadyEpochs(); err != nil {
			t.Fatal(err)
		}
	}
	if n1.NextEpoch() != n2.NextEpoch() {
		t.Fatalf("nodes at different epochs: %d vs %d", n1.NextEpoch(), n2.NextEpoch())
	}
	if n1.StateRoot() != n2.StateRoot() {
		t.Fatalf("state roots diverge: %s vs %s", n1.StateRoot(), n2.StateRoot())
	}
}

// droppedTotal sums nezha_mempool_dropped_total over every reason for one
// node's pool. The series is process-wide: compare before and after.
func droppedTotal(t *testing.T, node string) float64 {
	t.Helper()
	var buf strings.Builder
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "nezha_mempool_dropped_total{") || !strings.Contains(line, `node="`+node+`"`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestMinerPreloadLosesNothing: a caller that preloads a whole workload
// lifts the caps it would overrun, and then admission queues every
// transaction; the same stream into the zero-value pool is refused past
// the default per-sender cap, and AddTxs's count says so — ingest never
// truncates silently.
func TestMinerPreloadLosesNothing(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 3, Accounts: 1000, Skew: 1.0, InitialBalance: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(2000)
	perSender := make(map[types.Address]int)
	hottest := 0
	for _, tx := range txs {
		perSender[tx.From]++
		hottest = max(hottest, perSender[tx.From])
	}
	if hottest <= 64 {
		t.Fatalf("the workload's hottest sender has %d transactions; the test needs one past the default SenderCap", hottest)
	}
	overCap := 0 // what the default SenderCap of 64 must refuse
	for _, c := range perSender {
		overCap += max(c-64, 0)
	}

	miner := func(id string, mp mempool.Config) *Miner {
		cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
		cfg.Mempool = mp
		n, err := New(id, kvstore.NewMemory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return NewMiner(n, types.AddressFromUint64(1), 100)
	}

	lifted := miner("preload-lifted", mempool.Config{ShardCap: -1, SenderCap: -1})
	before := droppedTotal(t, "preload-lifted")
	if got := lifted.AddTxs(txs); got != len(txs) || lifted.PoolSize() != len(txs) {
		t.Fatalf("caps lifted: admitted %d, pool %d, submitted %d", got, lifted.PoolSize(), len(txs))
	}
	if d := droppedTotal(t, "preload-lifted") - before; d != 0 {
		t.Fatalf("caps lifted: nezha_mempool_dropped_total moved by %v", d)
	}

	capped := miner("preload-default", mempool.Config{})
	before = droppedTotal(t, "preload-default")
	got := capped.AddTxs(txs)
	if got != len(txs)-overCap || capped.PoolSize() != got {
		t.Fatalf("defaults: admitted %d, pool %d; want %d (%d submitted, %d past SenderCap)",
			got, capped.PoolSize(), len(txs)-overCap, len(txs), overCap)
	}
	if d := droppedTotal(t, "preload-default") - before; int(d) != overCap {
		t.Fatalf("defaults: nezha_mempool_dropped_total moved by %v, want %d", d, overCap)
	}
}
