// SmallBank: the paper's benchmark workload through the full single-node
// pipeline — MiniVM contract execution, Nezha scheduling, Merkle Patricia
// Trie commitment — comparing Nezha, the CG baseline, and serial execution
// on the same epochs.
//
//	go run ./examples/smallbank -txs 400 -skew 0.6
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/nezha-dag/nezha/internal/cg"
	"github.com/nezha-dag/nezha/internal/cluster"
	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/workload"
)

func main() {
	txCount := flag.Int("txs", 400, "transactions per epoch")
	skew := flag.Float64("skew", 0.6, "Zipfian skew")
	epochs := flag.Int("epochs", 3, "epochs to run")
	flag.Parse()

	schemes := []struct {
		name      string
		perMember func(int, *node.Config)
	}{
		{"nezha", cluster.Nezha},
		{"cg", func(_ int, cfg *node.Config) { cfg.Scheduler = cg.NewScheduler(cg.DefaultConfig()) }},
		{"serial", nil},
	}

	for _, scheme := range schemes {
		if err := run(scheme.name, scheme.perMember, *txCount, *skew, *epochs); err != nil {
			log.Fatalf("%s: %v", scheme.name, err)
		}
	}
}

func run(name string, perMember func(int, *node.Config), txCount int, skew float64, epochs int) error {
	gen, err := workload.NewGenerator(workload.Config{
		Seed: 7, Accounts: 10_000, Skew: skew, InitialBalance: 10_000,
	})
	if err != nil {
		return err
	}
	txs := gen.Txs(txCount * epochs)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		return err
	}

	c, err := cluster.New(cluster.Config{
		IDs:       []string{name},
		Miners:    1,
		BlockSize: (txCount + 1) / 2,
		Node: node.Config{
			Consensus:     consensus.Params{Chains: 2, DifficultyBits: 0},
			Contracts:     smallbank.Contracts(),
			GenesisWrites: genesis,
			// The whole workload is preloaded: lift the pool's caps.
			Mempool: mempool.Config{ShardCap: -1, SenderCap: -1},
		},
		PerMember: perMember,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	n, start := c.Members[0].Node, time.Now()
	if err := c.Preload(txs); err != nil {
		return err
	}
	for n.NextEpoch() <= uint64(epochs) {
		if _, err := c.Round(context.Background()); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	sum := n.Metrics().Summarize()
	fmt.Printf("%-7s %d epochs x ~%d txs: committed %d, aborted %d (%.1f%%)\n",
		name, sum.Epochs, txCount, sum.Committed, sum.Aborted, 100*sum.AbortRate())
	fmt.Print("        stages:")
	for _, st := range sum.Stages {
		fmt.Printf(" %s %v,", st.Name, st.Duration.Round(time.Microsecond))
	}
	fmt.Printf(" total %v (wall %v)\n", sum.Total().Round(time.Microsecond), elapsed.Round(time.Millisecond))
	fmt.Printf("        final state root: %s\n\n", n.StateRoot().Short())
	return nil
}
