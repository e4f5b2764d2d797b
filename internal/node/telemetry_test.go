package node

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// TestNodeTracerSpans: an attached tracer records one span per pipeline
// stage per epoch on the node's track, and with a signed backlog the
// background prevalidation and the adopted look-ahead runs appear on the
// <id>/background track.
func TestNodeTracerSpans(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 21, Accounts: 150, Skew: 0.2, InitialBalance: 1_000, Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(200)
	cfg := testConfig(1, core.MustNewScheduler(core.DefaultConfig()))
	cfg.VerifySignatures = true
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	n, err := New("traced", kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracer := metrics.NewTracer()
	n.SetTracer(tracer)

	miner := NewMiner(n, types.AddressFromUint64(5), 50)
	preload(t, miner, txs)
	mineAhead(t, n, miner, 3) // backlog → prevalidation overlap
	results, err := n.ProcessReadyEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 3 {
		t.Fatalf("processed %d epochs, want >= 3", len(results))
	}
	// 4 stages per epoch, plus at least one prevalidation span.
	if tracer.Len() < 4*len(results)+1 {
		t.Fatalf("tracer recorded %d spans for %d epochs", tracer.Len(), len(results))
	}

	var b strings.Builder
	if err := tracer.Export(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	spans := map[string]int{}
	tracks := map[string]bool{}
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			spans[e.Name]++
		case "M":
			tracks[e.Args["name"].(string)] = true
		}
	}
	for _, stage := range []string{"validate", "execute", "schedule", "commit"} {
		if spans[stage] != len(results) {
			t.Fatalf("%d %q spans for %d epochs", spans[stage], stage, len(results))
		}
	}
	if spans["prevalidate"] == 0 {
		t.Fatal("no prevalidate span despite a signed backlog")
	}
	if spans["lookahead"] != len(results)-1 {
		t.Fatalf("%d lookahead spans: every epoch after the first had a run to adopt", spans["lookahead"])
	}
	if !tracks["traced"] || !tracks["traced/background"] {
		t.Fatalf("tracks = %v", tracks)
	}
}

var registrySeriesRuns atomic.Int64

// TestNodeRegistrySeries: processing an epoch populates the process-wide
// registry with the node's stage and epoch series.
func TestNodeRegistrySeries(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 22, Accounts: 100, Skew: 0, InitialBalance: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.Txs(80)
	cfg := testConfig(2, core.MustNewScheduler(core.DefaultConfig()))
	if cfg.GenesisWrites, err = gen.GenesisWrites(txs); err != nil {
		t.Fatal(err)
	}
	// A unique node id keeps this test's series disjoint from other tests
	// sharing the default registry — and from its own earlier runs in the
	// process (-count, -cpu 1,4).
	id := fmt.Sprintf("registry-series-node-%d", registrySeriesRuns.Add(1))
	n, err := New(id, kvstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner(n, types.AddressFromUint64(8), 80)
	preload(t, miner, txs)
	growEpochs(t, n, []*Miner{miner}, 1)

	reg := metrics.Default()
	nl := metrics.Label{Name: "node", Value: id}
	if got := reg.Counter("nezha_epochs_processed_total", "", nl).Value(); got < 1 {
		t.Fatalf("epochs processed = %v", got)
	}
	if got := reg.Counter("nezha_txs_total", "", nl).Value(); got != float64(n.Metrics().Summarize().Txs) {
		t.Fatalf("txs counter = %v, collector says %d", got, n.Metrics().Summarize().Txs)
	}
	sl := metrics.Label{Name: "stage", Value: "execute"}
	if got := reg.Histogram("nezha_stage_duration_seconds", "", nil, nl, sl).Count(); got < 1 {
		t.Fatalf("execute duration observations = %d", got)
	}
	if got := reg.Counter("nezha_stage_tasks_total", "", nl, sl).Value(); got != float64(n.Metrics().Summarize().Txs) {
		t.Fatalf("execute tasks = %v", got)
	}
}
