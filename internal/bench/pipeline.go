package bench

import (
	"fmt"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/contracts/smallbank"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/workload"
)

// runPipeline drives the full node pipeline (VM execution, scheduling, MPT
// commitment) over `reps` epochs of omega blocks each and returns the
// aggregated metrics. sched == nil selects the serial baseline.
func runPipeline(o Options, omega int, skew float64, sched types.Scheduler, seedSalt int64) (metrics.Summary, error) {
	cfg := workload.Config{
		Seed:           o.Seed + seedSalt*104_729,
		Accounts:       o.Accounts,
		Skew:           skew,
		InitialBalance: 10_000,
	}
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return metrics.Summary{}, err
	}
	perEpoch := omega * o.BlockSize
	txs := gen.Txs(perEpoch * o.Reps)
	genesis, err := gen.GenesisWrites(txs)
	if err != nil {
		return metrics.Summary{}, err
	}

	n, err := node.New("bench", kvstore.NewMemory(), node.Config{
		Consensus:     consensus.Params{Chains: omega, DifficultyBits: 0},
		Scheduler:     sched,
		Workers:       o.Workers,
		Contracts:     smallbank.Contracts(),
		GenesisWrites: genesis,
	})
	if err != nil {
		return metrics.Summary{}, err
	}

	for rep := 0; rep < o.Reps; rep++ {
		epochTxs := txs[rep*perEpoch : (rep+1)*perEpoch]
		blocks := assembleBlocks(n, epochTxs, omega, o.BlockSize)
		if _, err := n.ProcessAssembledEpoch(blocks); err != nil {
			return metrics.Summary{}, fmt.Errorf("bench: epoch %d: %w", rep+1, err)
		}
	}
	return n.Metrics().Summarize(), nil
}

// assembleBlocks packs transactions into omega synthetic blocks carrying
// the node's current state root — the benchmark's stand-in for mined
// blocks, giving exact control over block concurrency.
func assembleBlocks(n *node.Node, txs []*types.Transaction, omega, blockSize int) []*types.Block {
	epoch := n.NextEpoch()
	blocks := make([]*types.Block, 0, omega)
	for c := 0; c < omega; c++ {
		start := c * blockSize
		end := start + blockSize
		if end > len(txs) {
			end = len(txs)
		}
		blockTxs := txs[start:end]
		blocks = append(blocks, &types.Block{
			Header: types.BlockHeader{
				TxRoot:    types.ComputeTxRoot(blockTxs),
				StateRoot: n.StateRoot(),
				Time:      epoch,
				Miner:     types.AddressFromUint64(uint64(c)),
				ChainID:   uint32(c),
				Height:    epoch,
				Rank:      epoch,
				NextRank:  epoch + 1,
			},
			Txs: blockTxs,
		})
	}
	return blocks
}
