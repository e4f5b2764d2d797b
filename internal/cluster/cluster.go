// Package cluster builds the paper's deployment (§VI-A) in one process —
// miners, full nodes that do not mine, one simulated network — and does
// once what every in-process cluster needs: reopen a member after a crash,
// preload, advance a round, check that the members agree, and close.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/nezha-dag/nezha/internal/consensus"
	"github.com/nezha-dag/nezha/internal/core"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/node"
	"github.com/nezha-dag/nezha/internal/p2p"
	"github.com/nezha-dag/nezha/internal/types"
)

// mineTimeout bounds one miner's search in a round, so rounds interleave.
const mineTimeout = 250 * time.Millisecond

// Config describes a cluster.
type Config struct {
	// IDs names the members in the order they join the fabric and open.
	IDs []string
	// Miners is how many members, from the first, mine; the rest are full
	// nodes that process every epoch without mining.
	Miners    int
	BlockSize int
	// Node is the template of every member's node configuration.
	Node node.Config
	// PerMember is the scheduler factory: it gives member i's copy of Node
	// a scheduler of its own (a scheduler keeps per-epoch state) and may
	// vary the member's other fields. Nil means the serial baseline.
	PerMember func(i int, cfg *node.Config)
	// Open opens a member's store; nil means a fresh in-memory one.
	Open func(id string) (kvstore.Store, error)
	// Fabric, when set, joins every member to one simulated network.
	Fabric *p2p.Config
}

// Nezha is the PerMember that runs the paper's scheduler on every member.
func Nezha(_ int, cfg *node.Config) { cfg.Scheduler = core.MustNewScheduler(core.DefaultConfig()) }

// Member is one node of a cluster. Node, Store and Miner are nil while it
// is crashed; Miner is nil for a full node, Endpoint without a fabric.
type Member struct {
	ID       string
	Node     *node.Node
	Store    kvstore.Store
	Miner    *node.Miner
	Endpoint *p2p.Endpoint
	index    int
}

// Cluster is a built set of members.
type Cluster struct {
	Members []*Member
	cfg     Config
	net     *p2p.Network
	// agreed[i*len(Members)+j], i < j, is how many epochs from genesis on
	// Agree last found members i and j to agree on.
	agreed []uint64
}

// New builds the cluster: each member in turn joins the fabric and opens.
func New(cfg Config) (*Cluster, error) {
	c := &Cluster{cfg: cfg, agreed: make([]uint64, len(cfg.IDs)*len(cfg.IDs))}
	if cfg.Fabric != nil {
		c.net = p2p.NewNetwork(*cfg.Fabric)
	}
	for i, id := range cfg.IDs {
		m := &Member{ID: id, index: i}
		c.Members = append(c.Members, m)
		var err error
		if c.net != nil {
			m.Endpoint, err = c.net.Join(id)
		}
		if err == nil {
			err = c.open(m)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Network is the members' fabric (nil without one).
func (c *Cluster) Network() *p2p.Network { return c.net }

func (c *Cluster) open(m *Member) error {
	open := c.cfg.Open
	if open == nil {
		open = func(string) (kvstore.Store, error) { return kvstore.NewMemory(), nil }
	}
	store, err := open(m.ID)
	if err != nil {
		return err
	}
	cfg := c.cfg.Node
	if c.cfg.PerMember != nil {
		c.cfg.PerMember(m.index, &cfg)
	}
	n, err := node.New(m.ID, store, cfg)
	if err != nil {
		store.Close()
		return err
	}
	m.Node, m.Store = n, store
	if m.index < c.cfg.Miners {
		m.Miner = node.NewMiner(n, types.AddressFromUint64(uint64(m.index+1)), c.cfg.BlockSize)
	}
	return nil
}

// Crash abandons m's node, miner and store as a killed process leaves
// them: nothing is flushed and the store is never closed.
func (c *Cluster) Crash(m *Member) { m.Node, m.Store, m.Miner = nil, nil, nil }

// Reopen restarts m over a store from Config.Open, abandoning what it still
// holds; a node that persisted its epochs restores them. Agree compares m
// with the others from genesis again.
func (c *Cluster) Reopen(m *Member) error {
	c.Crash(m)
	for k, n := 0, len(c.Members); k < n; k++ {
		c.agreed[m.index*n+k], c.agreed[k*n+m.index] = 0, 0
	}
	return c.open(m)
}

// Preload admits the whole workload into every miner's pool. The caller
// offers each transaction once, so a refusal loses it and is an error.
func (c *Cluster) Preload(txs []*types.Transaction) error {
	for _, m := range c.Members {
		if err := admit(m, txs); err != nil {
			return err
		}
	}
	return nil
}

func admit(m *Member, txs []*types.Transaction) error {
	if m.Miner == nil || len(txs) == 0 {
		return nil
	}
	if got := m.Miner.AddTxs(txs); got != len(txs) {
		return fmt.Errorf("%s: the pool admitted %d of %d transactions", m.ID, got, len(txs))
	}
	return nil
}

// Round advances the cluster one round: each miner mines one candidate,
// submits it to its own node and broadcasts it; the inboxes drain through
// Node.HandleMessage, proposed transactions going to the member's pool;
// then every member processes its ready epochs, which Round returns.
func (c *Cluster) Round(ctx context.Context) ([][]*node.EpochResult, error) {
	for _, m := range c.Members {
		if m.Miner == nil {
			continue
		}
		mineCtx, cancel := context.WithTimeout(ctx, mineTimeout)
		b, err := m.Miner.Mine(mineCtx)
		cancel()
		if errors.Is(err, consensus.ErrMiningCancelled) && ctx.Err() == nil {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: mine: %w", m.ID, err)
		}
		// A refused candidate lost its chain to a block that landed first.
		if m.Node.SubmitBlock(b) == nil && m.Endpoint != nil {
			m.Endpoint.Broadcast(p2p.Message{Type: p2p.MsgBlock, Block: b})
		}
	}
	if err := c.Drain(func(i int, msg p2p.Message) error {
		m := c.Members[i]
		txs, err := m.Node.HandleMessage(m.Endpoint, msg)
		if err != nil {
			return err
		}
		return admit(m, txs)
	}); err != nil {
		return nil, err
	}
	results := make([][]*node.EpochResult, len(c.Members))
	for i, m := range c.Members {
		var err error
		if results[i], err = m.Node.ProcessReadyEpochs(); err != nil {
			return nil, fmt.Errorf("%s: %w", m.ID, err)
		}
	}
	return results, nil
}

// Drain hands every message in flight to deliver, with the receiving
// member's index, sweeping the inboxes of the members that are not crashed
// until two consecutive sweeps, a delivery delay apart, find nothing: no
// member then processes an epoch while a block of it is on the wire. A
// member that crashes mid-sweep keeps the rest of its inbox.
func (c *Cluster) Drain(deliver func(i int, msg p2p.Message) error) error {
	if c.net == nil {
		return nil
	}
	pause := max(c.cfg.Fabric.Latency+c.cfg.Fabric.Jitter, 2*time.Millisecond)
	for quiet, sweeps := 0, 0; quiet < 2; sweeps++ {
		if sweeps > 400 { // a healthy drain quiesces in a handful of sweeps
			return fmt.Errorf("cluster: the network failed to quiesce after %d sweeps", sweeps)
		}
		if sweeps > 0 {
			time.Sleep(pause)
		}
		quiet++
		for i, m := range c.Members {
			for empty := false; !empty && m.Node != nil; {
				select {
				case msg := <-m.Endpoint.Inbox():
					quiet = 0
					if err := deliver(i, msg); err != nil {
						return fmt.Errorf("%s: %w", m.ID, err)
					}
				default:
					empty = true
				}
			}
		}
	}
	return nil
}

// Agree checks that every two live members recorded the same root, and
// assembled the same blocks and transactions in the same order, for every
// epoch both have processed, resuming each pair where the last call left
// it. Head roots would not do: a member that recorded a wrong root for an
// epoch and moved past it can still hold the right head.
func (c *Cluster) Agree() error {
	n := len(c.Members)
	for i, a := range c.Members {
		for j := i + 1; j < n; j++ {
			if b := c.Members[j]; a.Node != nil && b.Node != nil {
				upTo, err := Compare(a.Node, b.Node, c.agreed[i*n+j])
				if err != nil {
					return err
				}
				c.agreed[i*n+j] = upTo
			}
		}
	}
	return nil
}

// Compare checks that a and b recorded the same root for every epoch from
// `from` up to the last both have processed, and that they re-derive the
// same assembly digests for it from their ledgers (node.AssemblyDigests:
// which blocks, in what order, carrying which transactions) — equal roots
// over different blocks are two DAG orders that happen to agree on state,
// as when both execute nothing. It returns the epoch after the last.
func Compare(a, b *node.Node, from uint64) (uint64, error) {
	upTo := min(a.NextEpoch(), b.NextEpoch())
	for e := from; e < upTo; e++ {
		ra, _ := a.RootAt(e)
		if rb, _ := b.RootAt(e); ra != rb {
			return from, fmt.Errorf("cluster: epoch %d: %s recorded root %s, %s recorded %s",
				e, a.ID(), ra.Short(), b.ID(), rb.Short())
		}
		if e == 0 {
			continue // genesis: nothing was assembled
		}
		ga, oka := a.Ledger().EpochBlocks(e)
		gb, okb := b.Ledger().EpochBlocks(e)
		if !oka || !okb {
			return from, fmt.Errorf("cluster: epoch %d: a ledger cannot serve a processed epoch (%s %v, %s %v)",
				e, a.ID(), oka, b.ID(), okb)
		}
		abd, atd := node.AssemblyDigests(ga)
		if bbd, btd := node.AssemblyDigests(gb); abd != bbd || atd != btd {
			return from, fmt.Errorf("cluster: epoch %d: assembly digests diverged: %s (%#x, %#x), %s (%#x, %#x)",
				e, a.ID(), abd, atd, b.ID(), bbd, btd)
		}
	}
	return upTo, nil
}

// Close closes the stores of the members that are not crashed and the
// fabric. Closing twice is harmless.
func (c *Cluster) Close() error {
	var errs []error
	for _, m := range c.Members {
		if m.Store != nil {
			errs = append(errs, m.Store.Close())
		}
	}
	if c.net != nil {
		c.net.Close()
	}
	return errors.Join(errs...)
}
