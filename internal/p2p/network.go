// Package p2p simulates the peer-to-peer network the paper's cluster runs
// on (14 nodes on 100 Mbps Ethernet, §VI-A). The simulation is in-process:
// endpoints exchange messages over channels with configurable latency,
// jitter, and loss. What the experiments need from the network — every node
// eventually sees every block and independently derives the same schedule —
// is preserved; wire-level details are out of scope by design (DESIGN.md).
package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
)

// msgDropped returns the drop counter for one (message type, reason)
// pair; reasons are "loss" (simulated wire loss), "queue_full" (a
// saturated inbox after retries), "partition" (sender and recipient in
// different partition groups), "down" (a crashed endpoint), and
// "failpoint" (an armed p2p/drop site).
func msgDropped(t MsgType, reason string) *metrics.Counter {
	return metrics.Default().Counter("nezha_p2p_msgs_dropped_total",
		"Messages dropped in flight, by type and reason.",
		metrics.Label{Name: "type", Value: t.String()},
		metrics.Label{Name: "reason", Value: reason})
}

func msgSent(t MsgType) *metrics.Counter {
	return metrics.Default().Counter("nezha_p2p_msgs_sent_total",
		"Per-recipient message deliveries attempted.",
		metrics.Label{Name: "type", Value: t.String()})
}

func msgDelivered(t MsgType) *metrics.Counter {
	return metrics.Default().Counter("nezha_p2p_msgs_delivered_total",
		"Messages enqueued into a recipient inbox.",
		metrics.Label{Name: "type", Value: t.String()})
}

// MsgType discriminates network messages.
type MsgType int

// Message types.
const (
	// MsgBlock carries one freshly mined block (gossip).
	MsgBlock MsgType = iota + 1
	// MsgTxs carries client transactions toward miners.
	MsgTxs
	// MsgGetBlocks asks a peer for its canonical blocks above Height
	// (block synchronization for late joiners).
	MsgGetBlocks
	// MsgBlocks answers MsgGetBlocks with a batch of blocks in
	// parent-before-child order.
	MsgBlocks
)

// String implements fmt.Stringer (also the metrics type label).
func (t MsgType) String() string {
	switch t {
	case MsgBlock:
		return "block"
	case MsgTxs:
		return "txs"
	case MsgGetBlocks:
		return "get_blocks"
	case MsgBlocks:
		return "blocks"
	default:
		return fmt.Sprintf("type_%d", int(t))
	}
}

// Message is one network datagram.
type Message struct {
	From string
	Type MsgType
	// Block is set for MsgBlock.
	Block *types.Block
	// Txs is set for MsgTxs.
	Txs []*types.Transaction
	// Height is set for MsgGetBlocks: "send blocks above this height".
	Height uint64
	// Blocks is set for MsgBlocks.
	Blocks []*types.Block
	// UpTo is set on a MsgBlocks response: the batch covers every block
	// the sender knows with height in (request Height, UpTo]. The
	// requester resumes paging from UpTo.
	UpTo uint64
	// More is set on a MsgBlocks response whose sender capped the batch:
	// the requester should re-request from UpTo to keep catching up (see
	// node.HandleSyncRequest).
	More bool
}

// Config tunes the simulated network.
type Config struct {
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// LossRate drops messages with this probability (retransmission is
	// the application's concern, mirroring gossip redundancy).
	LossRate float64
	// Seed drives the jitter/loss randomness.
	Seed int64
	// QueueLen is each endpoint's inbox capacity (senders drop when an
	// inbox is full, like a saturated socket buffer).
	QueueLen int
	// QueueRetries is how many times a delivery of a block-bearing
	// message (MsgBlock, MsgBlocks) retries a full inbox before dropping,
	// so a briefly-busy node does not force a full sync round. Other
	// message types always drop immediately (gossip redundancy covers
	// them). 0 means 3; negative disables retries.
	QueueRetries int
	// RetryDelay is the pause between inbox retries. 0 means the base
	// Latency, or 1 ms when Latency is 0.
	RetryDelay time.Duration
}

// ErrDuplicateNode is returned when joining with a taken identifier.
var ErrDuplicateNode = errors.New("p2p: duplicate node id")

// Network is the in-process message fabric. Safe for concurrent use.
type Network struct {
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	nodes   map[string]*Endpoint
	pending sync.WaitGroup
	closed  bool
	// partition maps node id -> group index; nil means fully connected.
	// Nodes in different groups cannot exchange messages.
	partition map[string]int
	// down marks crashed endpoints: they neither send nor receive until
	// marked up again (crash-restart simulation keeps the endpoint and
	// its id, like a process restarting on the same host).
	down map[string]bool
}

// NewNetwork creates an empty network.
func NewNetwork(cfg Config) *Network {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.QueueRetries == 0 {
		cfg.QueueRetries = 3
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = cfg.Latency
		if cfg.RetryDelay <= 0 {
			cfg.RetryDelay = time.Millisecond
		}
	}
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		nodes: make(map[string]*Endpoint),
		down:  make(map[string]bool),
	}
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	id    string
	net   *Network
	inbox chan Message
}

// Join attaches a new endpoint with the given id.
func (n *Network) Join(id string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.nodes[id]; taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	ep := &Endpoint{id: id, net: n, inbox: make(chan Message, n.cfg.QueueLen)}
	n.nodes[id] = ep
	return ep, nil
}

// Partition splits the network into isolated groups: nodes may only
// exchange messages with nodes in their own group. Nodes not named in any
// group together form one implicit group of their own, so a single call
// like Partition([]string{"n3"}) isolates n3 from everyone else. Heal
// reconnects everything.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Listed groups are numbered from 1; unlisted nodes read as the map
	// zero value 0, the implicit group.
	n.partition = make(map[string]int)
	for g, ids := range groups {
		for _, id := range ids {
			n.partition[id] = g + 1
		}
	}
}

// Heal removes any partition: the network is fully connected again.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = nil
}

// SetDown marks an endpoint as crashed (true) or restarted (false). A down
// endpoint neither sends nor receives; its queued inbox messages remain
// and are typically drained by Endpoint.Drain on restart.
func (n *Network) SetDown(id string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = down
}

// Drain discards everything queued in the endpoint's inbox — a restarted
// process has an empty socket buffer.
func (e *Endpoint) Drain() int {
	drained := 0
	for {
		select {
		case <-e.inbox:
			drained++
		default:
			return drained
		}
	}
}

// reachableLocked reports whether a message from `from` may reach `to`
// under the current partition and crash state.
func (n *Network) reachableLocked(from, to string) (ok bool, reason string) {
	if n.down[from] || n.down[to] {
		return false, "down"
	}
	if n.partition != nil && n.partition[from] != n.partition[to] {
		return false, "partition"
	}
	return true, ""
}

// Close stops delivery; in-flight messages are awaited so no goroutine
// leaks past Close.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.pending.Wait()
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() string { return e.id }

// Inbox returns the receive channel.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// Broadcast sends a message to every other endpoint, each delivery subject
// to latency, jitter, and loss.
func (e *Endpoint) Broadcast(msg Message) {
	msg.From = e.id
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	for id, peer := range n.nodes {
		if id == e.id {
			continue
		}
		n.deliverLocked(peer, msg)
	}
}

// Send delivers a message to one peer; unknown peers are silently dropped,
// as on a real lossy network.
func (e *Endpoint) Send(to string, msg Message) {
	msg.From = e.id
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if peer, ok := n.nodes[to]; ok {
		n.deliverLocked(peer, msg)
	}
}

func (n *Network) deliverLocked(to *Endpoint, msg Message) {
	msgSent(msg.Type).Inc()
	if ok, reason := n.reachableLocked(msg.From, to.id); !ok {
		msgDropped(msg.Type, reason).Inc()
		return
	}
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		msgDropped(msg.Type, "loss").Inc()
		return
	}
	delay := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	// Block-bearing messages get a bounded number of inbox retries: a
	// briefly-saturated recipient should miss a block only under real
	// pressure, because every miss costs a sync round later.
	retries := 0
	if msg.Type == MsgBlock || msg.Type == MsgBlocks {
		retries = n.cfg.QueueRetries
	}
	retryDelay := n.cfg.RetryDelay
	n.pending.Add(1)
	go func() {
		defer n.pending.Done()
		if delay > 0 {
			time.Sleep(delay)
		}
		// Failpoints evaluate per delivery, scoped by the recipient: an
		// armed p2p/drop blackholes traffic toward one node, an armed
		// p2p/stall delays it (a slow peer).
		if fail.Drop(fail.P2PDrop, to.id) {
			msgDropped(msg.Type, "failpoint").Inc()
			return
		}
		_ = fail.HitTag(fail.P2PStall, to.id)
		// Non-blocking: a full inbox drops the message, like a saturated
		// socket buffer — after the bounded retries above, for blocks.
		for attempt := 0; ; attempt++ {
			select {
			case to.inbox <- msg:
				msgDelivered(msg.Type).Inc()
				return
			default:
				if attempt >= retries {
					msgDropped(msg.Type, "queue_full").Inc()
					return
				}
				time.Sleep(retryDelay)
			}
		}
	}()
}
