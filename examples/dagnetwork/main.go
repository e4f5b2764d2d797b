// DAG network: four full nodes mine OHIE blocks concurrently, gossip them
// over the simulated P2P fabric, and independently process each epoch with
// Nezha — then prove they agree on every state root. This is the paper's
// deployment picture (§VI-A) in miniature.
//
//	go run ./examples/dagnetwork
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/dag"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

const (
	numNodes   = 4
	numChains  = 4
	targetEpoc = 3
	latency    = time.Millisecond
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 11, Accounts: 5_000, Skew: 0.5, InitialBalance: 10_000,
	})
	if err != nil {
		return err
	}
	txs := gen.Txs(6_000)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		return err
	}

	net := p2p.NewNetwork(p2p.Config{Latency: latency, Jitter: latency, QueueLen: 4096})
	defer net.Close()

	type peer struct {
		node  *node.Node
		miner *node.Miner
		ep    *p2p.Endpoint
	}
	peers := make([]*peer, numNodes)
	for i := range peers {
		id := fmt.Sprintf("node-%d", i)
		n, err := node.New(id, kvstore.NewMemory(), node.Config{
			Consensus:     consensus.Params{Chains: numChains, DifficultyBits: 5},
			Scheduler:     core.MustNewScheduler(core.DefaultConfig()),
			Contracts:     map[types.Address][]byte{smallbank.ContractAddress: smallbank.Program()},
			GenesisWrites: genesis,
			ConfirmDepth:  3,
			// Every miner preloads the whole workload: lift the pool's caps.
			Mempool: mempool.Config{ShardCap: -1, SenderCap: -1},
		})
		if err != nil {
			return err
		}
		ep, err := net.Join(id)
		if err != nil {
			return err
		}
		m := node.NewMiner(n, types.AddressFromUint64(uint64(i)), 100)
		if got := m.AddTxs(txs); got != len(txs) {
			return fmt.Errorf("%s: pool admitted %d of %d transactions", id, got, len(txs))
		}
		peers[i] = &peer{node: n, miner: m, ep: ep}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fmt.Printf("%d nodes mining %d parallel chains, gossiping over a simulated LAN...\n", numNodes, numChains)

	for peers[0].node.NextEpoch() <= targetEpoc {
		if ctx.Err() != nil {
			return errors.New("timed out before reaching the target epoch")
		}
		time.Sleep(4 * latency) // let gossip settle between rounds
		for _, p := range peers {
			mineCtx, mineCancel := context.WithTimeout(ctx, 200*time.Millisecond)
			b, err := p.miner.Mine(mineCtx)
			mineCancel()
			if err != nil {
				continue
			}
			if p.node.SubmitBlock(b) == nil {
				p.ep.Broadcast(p2p.Message{Type: p2p.MsgBlock, Block: b})
			}
		}
		for _, p := range peers {
			for drained := false; !drained; {
				select {
				case msg := <-p.ep.Inbox():
					err := p.node.SubmitBlock(msg.Block)
					if err != nil && !errors.Is(err, dag.ErrDuplicateBlock) &&
						!errors.Is(err, dag.ErrBelowFinal) && !errors.Is(err, dag.ErrUnknownParent) {
						return err
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
				fmt.Printf("  %s processed epoch %d: %4d txs -> root %s\n",
					p.node.ID(), r.Epoch, r.Stats.Txs, r.StateRoot.Short())
			}
		}
	}

	fmt.Println("\nagreement check:")
	byEpoch := map[uint64]map[types.Hash][]string{}
	for _, p := range peers {
		e := p.node.NextEpoch() - 1
		if byEpoch[e] == nil {
			byEpoch[e] = map[types.Hash][]string{}
		}
		byEpoch[e][p.node.StateRoot()] = append(byEpoch[e][p.node.StateRoot()], p.node.ID())
	}
	for e, roots := range byEpoch {
		if len(roots) > 1 {
			return fmt.Errorf("epoch %d: nodes disagree: %v", e, roots)
		}
		for root, ids := range roots {
			fmt.Printf("  epoch %d: %v all at root %s\n", e, ids, root.Short())
		}
	}
	fmt.Println("all nodes at the same epoch agree — deterministic scheduling held across the network")
	return nil
}
