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
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/types"
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

	makeScheduler := func() (types.Scheduler, error) {
		switch *schedName {
		case "nezha":
			return core.MustNewScheduler(core.DefaultConfig()), nil
		case "cg":
			return cg.NewScheduler(cg.DefaultConfig()), nil
		case "serial":
			return nil, nil
		default:
			return nil, fmt.Errorf("unknown scheduler %q", *schedName)
		}
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

	net := p2p.NewNetwork(p2p.Config{Latency: *latency, Jitter: *latency, QueueLen: 4096})
	defer net.Close()

	type peer struct {
		node  *node.Node
		miner *node.Miner // nil for the full (observer) node
		ep    *p2p.Endpoint
	}
	// *nodes miners plus one non-mining full node, as in the paper's
	// cluster (the full node is the measurement vantage point).
	peers := make([]*peer, *nodes+1)
	for i := range peers {
		sched, err := makeScheduler()
		if err != nil {
			return err
		}
		id := fmt.Sprintf("miner-%d", i)
		if i == *nodes {
			id = "full-node"
		}
		var store kvstore.Store = kvstore.NewMemory()
		persist := false
		if *datadir != "" {
			lsm, err := kvstore.OpenLSM(filepath.Join(*datadir, id), kvstore.DefaultLSMOptions())
			if err != nil {
				return err
			}
			defer lsm.Close()
			store, persist = lsm, true
		}
		n, err := node.New(id, store, node.Config{
			Consensus:        consensus.Params{Chains: *chains, DifficultyBits: *difficulty},
			Scheduler:        sched,
			Contracts:        map[types.Address][]byte{smallbank.ContractAddress: smallbank.Program()},
			GenesisWrites:    genesis,
			ConfirmDepth:     3,
			Persist:          persist,
			RetainEpochStats: *retain,
			// The client proposes the whole workload up front: caps lifted.
			Mempool: mempool.Config{ShardCap: -1, SenderCap: -1},
		})
		if err != nil {
			return err
		}
		ep, err := net.Join(id)
		if err != nil {
			return err
		}
		var m *node.Miner
		if i < *nodes {
			m = node.NewMiner(n, types.AddressFromUint64(uint64(i)), *blockSize)
		}
		peers[i] = &peer{node: n, miner: m, ep: ep}
	}
	fullNode := peers[*nodes]
	var tracer *metrics.Tracer
	if *traceOut != "" {
		// Trace the full node — the paper's measurement vantage point.
		tracer = metrics.NewTracer()
		fullNode.node.SetTracer(tracer)
	}

	// The client proposes transactions over the network; miners pick
	// them up from their inboxes (MsgTxs), exactly the paper's topology.
	client, err := net.Join("client")
	if err != nil {
		return err
	}
	const txBatch = 500
	for start := 0; start < len(txs); start += txBatch {
		end := start + txBatch
		if end > len(txs) {
			end = len(txs)
		}
		client.Broadcast(p2p.Message{Type: p2p.MsgTxs, Txs: txs[start:end]})
	}

	fmt.Printf("network: %d miners + 1 full node + 1 client, %d chains, difficulty %d bits, scheduler %s\n",
		*nodes, *chains, *difficulty, *schedName)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	start := time.Now()
	// Event loop: each round, every node mines one candidate (cancelled
	// quickly so rounds interleave), gossips it, drains its inbox, and
	// processes any completed epochs. The settle delay keeps the round
	// period well above network latency, as a 1 s block interval over a
	// same-region LAN is (§VI-A) — without it, synchronized miners bury
	// unresolved forks faster than gossip can deliver the candidates.
	settle := 4 * *latency
	for peers[0].node.NextEpoch() <= *epochs {
		if ctx.Err() != nil {
			return fmt.Errorf("timed out before epoch %d completed", *epochs)
		}
		time.Sleep(settle)
		for _, p := range peers {
			if p.miner == nil {
				continue
			}
			mineCtx, mineCancel := context.WithTimeout(ctx, 250*time.Millisecond)
			b, err := p.miner.Mine(mineCtx)
			mineCancel()
			if errors.Is(err, consensus.ErrMiningCancelled) {
				continue
			}
			if err != nil {
				return err
			}
			if err := p.node.SubmitBlock(b); err == nil {
				p.ep.Broadcast(p2p.Message{Type: p2p.MsgBlock, Block: b})
			}
		}
		for _, p := range peers {
			for drained := false; !drained; {
				select {
				case msg := <-p.ep.Inbox():
					if txs, err := p.node.HandleMessage(p.ep, msg); err != nil {
						return fmt.Errorf("%s: %w", p.node.ID(), err)
					} else if len(txs) > 0 && p.miner != nil {
						// The client sends each once: a refusal is a loss.
						if got := p.miner.AddTxs(txs); got != len(txs) {
							return fmt.Errorf("%s: pool admitted %d of %d proposed transactions", p.node.ID(), got, len(txs))
						}
					}
				default:
					drained = true
				}
			}
			results, err := p.node.ProcessReadyEpochs()
			if err != nil {
				return err
			}
			for _, r := range results {
				if p == fullNode {
					fmt.Printf("epoch %d (full node): %d txs, %d committed, %d aborted, root %s (%v)\n",
						r.Epoch, r.Stats.Txs, r.Stats.Committed, r.Stats.Aborted,
						r.StateRoot.Short(), r.Stats.Total().Round(time.Microsecond))
				}
			}
		}
	}

	// Agreement check: every node that reached each epoch must agree.
	fmt.Printf("\nfinal state roots after %v:\n", time.Since(start).Round(time.Millisecond))
	var root types.Hash
	agree := true
	minEpoch := peers[0].node.NextEpoch()
	for _, p := range peers {
		if p.node.NextEpoch() < minEpoch {
			minEpoch = p.node.NextEpoch()
		}
	}
	for i, p := range peers {
		fmt.Printf("  %s: epoch %d, root %s\n", p.node.ID(), p.node.NextEpoch()-1, p.node.StateRoot().Short())
		if i == 0 {
			root = p.node.StateRoot()
		} else if p.node.NextEpoch() == peers[0].node.NextEpoch() && p.node.StateRoot() != root {
			agree = false
		}
	}
	if !agree {
		return fmt.Errorf("nodes at the same epoch DISAGREE on the state root")
	}
	fmt.Println("nodes at the same epoch agree on the state root")
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n",
			tracer.Len(), *traceOut)
	}
	return nil
}
