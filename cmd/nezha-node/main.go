// Command nezha-node runs a simulated multi-node OHIE network end to end,
// shaped like the paper's deployment (§VI-A: miner nodes, one full node
// that synchronizes and measures, one client that proposes transactions):
// a client broadcasts SmallBank transactions over the simulated P2P fabric,
// miners race proof-of-work over parallel chains and gossip blocks, and
// every node — including the non-mining full node — independently runs the
// four-phase pipeline (validate → speculative execution → concurrency
// control → commit), converging on the same state root each epoch.
//
// Usage:
//
//	nezha-node -nodes 4 -chains 4 -epochs 3 -skew 0.6 -scheduler nezha
//	nezha-node -metrics-addr :9090 -trace-out epochs.trace.json
//
// -metrics-addr serves live telemetry (/metrics in Prometheus text
// format, /healthz, /debug/pprof) while the network runs; -trace-out
// writes the full node's per-stage spans as Chrome trace-event JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/cluster"
	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nezha-node: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		nodes      = flag.Int("nodes", 4, "number of full nodes (each also mines)")
		chains     = flag.Int("chains", 4, "parallel chains (block concurrency)")
		epochs     = flag.Uint64("epochs", 3, "epochs to process before stopping")
		skew       = flag.Float64("skew", 0.6, "workload Zipfian skew")
		blockSize  = flag.Int("blocksize", 100, "transactions per block")
		txCount    = flag.Int("txs", 4000, "client transactions injected up front")
		difficulty = flag.Int("difficulty", 6, "PoW difficulty bits")
		schedName  = flag.String("scheduler", "nezha", "nezha | cg | serial")
		latency    = flag.Duration("latency", time.Millisecond, "simulated network latency")
		datadir    = flag.String("datadir", "", "directory for durable LSM stores (empty = in-memory)")
		addr       = flag.String("metrics-addr", "", "serve /metrics, /healthz, and pprof on this host:port (empty = off)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the full node's epochs to this file")
		retain     = flag.Int("retain-stats", 4096, "per-epoch stat records each node retains (0 = unbounded)")
	)
	flag.Parse()

	if *addr != "" {
		srv, err := metrics.StartServer(*addr, metrics.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (healthz, debug/pprof alongside)\n", srv.Addr())
	}

	var perMember func(int, *node.Config)
	switch *schedName {
	case "nezha":
		perMember = cluster.Nezha
	case "cg":
		perMember = func(_ int, cfg *node.Config) { cfg.Scheduler = cg.NewScheduler(cg.DefaultConfig()) }
	case "serial":
	default:
		return fmt.Errorf("unknown scheduler %q", *schedName)
	}

	// Client workload: SmallBank over 10k accounts, with genesis funding.
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 1, Accounts: 10_000, Skew: *skew, InitialBalance: 10_000,
	})
	if err != nil {
		return err
	}
	txs := gen.Txs(*txCount)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		return err
	}

	// *nodes miners plus one non-mining full node, as in the paper's
	// cluster (the full node is the measurement vantage point).
	ids := make([]string, *nodes+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("miner-%d", i)
	}
	ids[*nodes] = "full-node"
	var open func(id string) (kvstore.Store, error)
	if *datadir != "" {
		open = func(id string) (kvstore.Store, error) {
			return kvstore.OpenLSM(filepath.Join(*datadir, id), kvstore.DefaultLSMOptions())
		}
	}
	c, err := cluster.New(cluster.Config{
		IDs:       ids,
		Miners:    *nodes,
		BlockSize: *blockSize,
		Node: node.Config{
			Consensus:        consensus.Params{Chains: *chains, DifficultyBits: *difficulty},
			Contracts:        smallbank.Contracts(),
			GenesisWrites:    genesis,
			ConfirmDepth:     3,
			Persist:          *datadir != "",
			RetainEpochStats: *retain,
			// The client proposes the whole workload up front: caps lifted.
			Mempool: mempool.Config{ShardCap: -1, SenderCap: -1},
		},
		PerMember: perMember,
		Open:      open,
		Fabric:    &p2p.Config{Latency: *latency, Jitter: *latency, QueueLen: 4096},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	var tracer *metrics.Tracer
	if *traceOut != "" {
		// Trace the full node — the paper's measurement vantage point.
		tracer = metrics.NewTracer()
		c.Members[*nodes].Node.SetTracer(tracer)
	}

	// The client proposes transactions over the network; miners pick
	// them up from their inboxes (MsgTxs), exactly the paper's topology.
	client, err := c.Network().Join("client")
	if err != nil {
		return err
	}
	for start := 0; start < len(txs); start += 500 {
		client.Broadcast(p2p.Message{Type: p2p.MsgTxs, Txs: txs[start:min(start+500, len(txs))]})
	}

	fmt.Printf("network: %d miners + 1 full node + 1 client, %d chains, difficulty %d bits, scheduler %s\n",
		*nodes, *chains, *difficulty, *schedName)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	start := time.Now()
	for c.Members[0].Node.NextEpoch() <= *epochs {
		results, err := c.Round(ctx)
		if err != nil {
			return fmt.Errorf("epoch %d not completed: %w", *epochs, err)
		}
		for _, r := range results[*nodes] {
			fmt.Printf("epoch %d (full node): %d txs, %d committed, %d aborted, root %s (%v)\n",
				r.Epoch, r.Stats.Txs, r.Stats.Committed, r.Stats.Aborted,
				r.StateRoot.Short(), r.Stats.Total().Round(time.Microsecond))
		}
	}

	fmt.Printf("\nfinal state roots after %v:\n", time.Since(start).Round(time.Millisecond))
	for _, m := range c.Members {
		fmt.Printf("  %s: epoch %d, root %s\n", m.ID, m.Node.NextEpoch()-1, m.Node.StateRoot().Short())
	}
	if err := c.Agree(); err != nil {
		return err
	}
	fmt.Println("every epoch two nodes both processed has one state root")
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n",
			tracer.Len(), *traceOut)
	}
	return c.Close() // a durable store reports a failed background flush here
}
