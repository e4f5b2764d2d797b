// DAG network: four full nodes mine OHIE blocks concurrently, gossip them
// over the simulated P2P fabric, and independently process each epoch with
// Nezha — then prove they agree on every state root. This is the paper's
// deployment picture (§VI-A) in miniature.
//
//	go run ./examples/dagnetwork
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/nezha-dag/nezha/internal/cluster"
	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/p2p"
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

	ids := make([]string, numNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	c, err := cluster.New(cluster.Config{
		IDs:       ids,
		Miners:    numNodes,
		BlockSize: 100,
		Node: node.Config{
			Consensus:     consensus.Params{Chains: numChains, DifficultyBits: 5},
			Contracts:     smallbank.Contracts(),
			GenesisWrites: genesis,
			ConfirmDepth:  3,
			// Every miner preloads the whole workload: lift the pool's caps.
			Mempool: mempool.Config{ShardCap: -1, SenderCap: -1},
		},
		PerMember: cluster.Nezha,
		Fabric:    &p2p.Config{Latency: latency, Jitter: latency, QueueLen: 4096},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Preload(txs); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fmt.Printf("%d nodes mining %d parallel chains, gossiping over a simulated LAN...\n", numNodes, numChains)

	for c.Members[0].Node.NextEpoch() <= targetEpoc {
		results, err := c.Round(ctx)
		if err != nil {
			return fmt.Errorf("target epoch not reached: %w", err)
		}
		for i, res := range results {
			for _, r := range res {
				fmt.Printf("  %s processed epoch %d: %4d txs -> root %s\n",
					c.Members[i].ID, r.Epoch, r.Stats.Txs, r.StateRoot.Short())
			}
		}
	}

	fmt.Println("\nagreement check:")
	if err := c.Agree(); err != nil {
		return err
	}
	for _, m := range c.Members {
		fmt.Printf("  %s: epochs 0-%d, head root %s\n", m.ID, m.Node.NextEpoch()-1, m.Node.StateRoot().Short())
	}
	fmt.Println("every epoch two nodes both processed has one root — deterministic scheduling held across the network")
	return nil
}
