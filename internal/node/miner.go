package node

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/mempool"
	"github.com/nezha-dag/nezha/internal/types"
)

// Miner drives block production for one node: it fronts an
// admission-controlled transaction pool (internal/mempool), assembles block
// templates in the pool's deterministic priority/nonce order over the node's
// current tips and latest processed state root, and runs the OHIE PoW.
type Miner struct {
	node      *Node
	addr      types.Address
	blockSize int
	mp        *mempool.Pool
	seed      atomic.Uint64
	clock     func() uint64
}

// NewMiner attaches a miner to a node. blockSize caps transactions per
// block (the paper uses 200, §VI-A). The pool is built from the node's
// Config.Mempool.
func NewMiner(n *Node, addr types.Address, blockSize int) *Miner {
	mpCfg := n.cfg.Mempool
	if mpCfg.Tag == "" {
		mpCfg.Tag = n.id
	}
	m := &Miner{
		node:      n,
		addr:      addr,
		blockSize: blockSize,
		mp:        mempool.New(mpCfg),
		clock:     func() uint64 { return uint64(time.Now().UnixMilli()) },
	}
	m.seed.Store(uint64(types.HashBytes(addr[:])[0]) << 32) // disjoint nonce ranges per miner
	return m
}

// SetClock replaces the source of block timestamps (wall-clock
// milliseconds by default); call it before the first Mine. The stamp feeds
// the header hash and the hash picks the OHIE chain, so a harness that
// needs the same blocks on every run drives the miner from a logical clock.
func (m *Miner) SetClock(clock func() uint64) { m.clock = clock }

// Pool exposes the miner's mempool (never nil) for submitters that want a
// typed refusal per transaction rather than AddTxs's count.
func (m *Miner) Pool() *mempool.Pool { return m.mp }

// AddTxs admits a batch and returns how many transactions the pool queued.
// The rest were refused (duplicate, nonce included, rate, capacity) and are
// counted by reason in nezha_mempool_dropped_total; a caller that owns the
// transactions checks the count, gossip redelivery ignores it.
func (m *Miner) AddTxs(txs []*types.Transaction) int {
	admitted, _ := m.mp.AdmitBatch(txs)
	return admitted
}

// PoolSize returns the number of queued transactions.
func (m *Miner) PoolSize() int { return m.mp.Len() }

// Mine assembles and mines one block. The transactions leave the pool only
// on success: Assemble is a peek, so a cancelled search forfeits nothing.
func (m *Miner) Mine(ctx context.Context) (*types.Block, error) {
	txs := m.mp.Assemble(m.blockSize)
	b, err := consensus.Mine(ctx, consensus.Template{
		Ledger:    m.node.Ledger(),
		StateRoot: m.node.StateRoot(),
		Txs:       txs,
		Miner:     m.addr,
		Time:      m.clock(),
		NonceSeed: m.seed.Add(1_000_000), // fresh nonce range per attempt
	}, m.node.cfg.Consensus)
	if err != nil {
		return nil, err
	}
	// Advance each sender's inclusion floor past the mined nonces so gossip
	// echoes bounce off admission.
	m.mp.MarkIncluded(txs)
	return b, nil
}
