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
	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

func main() {
	txCount := flag.Int("txs", 400, "transactions per epoch")
	skew := flag.Float64("skew", 0.6, "Zipfian skew")
	epochs := flag.Int("epochs", 3, "epochs to run")
	flag.Parse()

	schemes := []struct {
		name string
		mk   func() types.Scheduler
	}{
		{"nezha", func() types.Scheduler { return core.MustNewScheduler(core.DefaultConfig()) }},
		{"cg", func() types.Scheduler { return cg.NewScheduler(cg.DefaultConfig()) }},
		{"serial", func() types.Scheduler { return nil }},
	}

	for _, scheme := range schemes {
		if err := run(scheme.name, scheme.mk(), *txCount, *skew, *epochs); err != nil {
			log.Fatalf("%s: %v", scheme.name, err)
		}
	}
}

func run(name string, sched types.Scheduler, txCount int, skew float64, epochs int) error {
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

	n, err := node.New(name, kvstore.NewMemory(), node.Config{
		Consensus:     consensus.Params{Chains: 2, DifficultyBits: 0},
		Scheduler:     sched,
		Contracts:     map[types.Address][]byte{smallbank.ContractAddress: smallbank.Program()},
		GenesisWrites: genesis,
		// The whole workload is preloaded: lift the pool's caps.
		Mempool: mempool.Config{ShardCap: -1, SenderCap: -1},
	})
	if err != nil {
		return err
	}

	start := time.Now()
	miner := node.NewMiner(n, types.AddressFromUint64(1), (txCount+1)/2)
	if got := miner.AddTxs(txs); got != len(txs) {
		return fmt.Errorf("pool admitted %d of %d transactions", got, len(txs))
	}
	processed := 0
	for processed < epochs {
		b, err := miner.Mine(context.Background())
		if err != nil {
			return err
		}
		if err := n.SubmitBlock(b); err != nil {
			continue // hash landed on a chain that already advanced
		}
		results, err := n.ProcessReadyEpochs()
		if err != nil {
			return err
		}
		processed += len(results)
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
