package node

// Self-healing block synchronization, the node's one sync client. A single
// MsgGetBlocks to a chosen peer assumes the peer answers; a real cluster
// has peers that crash, stall, or sit on the wrong side of a partition.
// Syncer sends those requests (HandleSyncRequest serves them) with the
// retry machinery a long-lived node needs: per-request deadlines,
// exponential backoff with jitter, rotation to the next peer on timeout,
// and a consecutive-failure health score that demotes unresponsive peers so
// they are skipped until everyone else has failed too.
//
// Syncer is event-loop driven, like the rest of the node: the owner calls
// Kick to start catching up, HandleBlocks when a MsgBlocks arrives, and Tick
// periodically so deadlines and backoff expire. Time is always passed in,
// which keeps the chaos harness and the tests deterministic.

import (
	"math/rand"
	"sync"
	"time"

	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/p2p"
)

// The per-node sync counters. Each helper passes its name as a literal at
// the constructor call: nezha-vet's metricshygiene analyzer requires
// grep-able literal names at every Counter/Gauge call site, which is why
// there is no name-threading wrapper here.

func syncNode(node string) metrics.Label {
	return metrics.Label{Name: "node", Value: node}
}

func syncServed(node string) *metrics.Counter {
	return metrics.Default().Counter("nezha_sync_blocks_served_total",
		"Blocks serialized into MsgBlocks responses for other nodes.", syncNode(node))
}

func syncRequests(node string) *metrics.Counter {
	return metrics.Default().Counter("nezha_sync_requests_total",
		"MsgGetBlocks requests issued by the syncer.", syncNode(node))
}

func syncTimeouts(node string) *metrics.Counter {
	return metrics.Default().Counter("nezha_sync_timeouts_total",
		"Sync requests that hit their deadline without a response.", syncNode(node))
}

func syncAccepted(node string) *metrics.Counter {
	return metrics.Default().Counter("nezha_sync_blocks_accepted_total",
		"Blocks accepted into the ledger from sync responses.", syncNode(node))
}

func syncDemotions(node string) *metrics.Counter {
	return metrics.Default().Counter("nezha_sync_demotions_total",
		"Peers demoted after consecutive sync failures.", syncNode(node))
}

func syncResyncs(node string) *metrics.Counter {
	return metrics.Default().Counter("nezha_sync_full_resyncs_total",
		"Full resyncs from height 0 after a no-progress exchange.", syncNode(node))
}

func syncInflight(node string) *metrics.Gauge {
	return metrics.Default().Gauge("nezha_sync_inflight",
		"Whether the syncer has an outstanding request (0 or 1).", syncNode(node))
}

// SyncConfig tunes the self-healing sync loop.
type SyncConfig struct {
	// RequestTimeout is the per-request deadline before the syncer gives
	// up on the current peer. 0 means 500 ms.
	RequestTimeout time.Duration
	// BackoffBase is the first retry delay after a failure; each further
	// consecutive failure doubles it. 0 means 100 ms.
	BackoffBase time.Duration
	// BackoffMax caps the doubling. 0 means 5 s.
	BackoffMax time.Duration
	// JitterFrac spreads each backoff uniformly in ±frac of itself so a
	// rebooted cluster does not retry in lockstep. 0 means 0.2.
	JitterFrac float64
	// DemoteAfter is how many consecutive failures demote a peer. A
	// demoted peer is skipped by rotation until every peer is demoted,
	// at which point all scores reset (better to retry a flaky peer than
	// to stall forever). 0 means 3.
	DemoteAfter int
	// Seed drives the backoff jitter.
	Seed int64
}

func (c SyncConfig) withDefaults() SyncConfig {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 500 * time.Millisecond
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.JitterFrac <= 0 {
		c.JitterFrac = 0.2
	}
	if c.DemoteAfter <= 0 {
		c.DemoteAfter = 3
	}
	return c
}

// peerHealth is one peer's consecutive-failure score.
type peerHealth struct {
	failures int
	demoted  bool
}

// Syncer drives a node's catch-up against a fixed peer set. Safe for
// concurrent use; all methods take the current time explicitly.
type Syncer struct {
	n   *Node
	ep  *p2p.Endpoint
	cfg SyncConfig

	mu           sync.Mutex
	order        []string // rotation order, fixed at construction
	health       map[string]*peerHealth
	cursor       int    // next rotation index into order
	inflight     bool   // a request is outstanding
	peer         string // who it was sent to
	deadline     time.Time
	failStreak   int       // consecutive failures across all peers (backoff input)
	backoffUntil time.Time // no new request before this instant
	// pagePeer/pageFrom are the pagination cursor: a More-flagged response
	// from pagePeer covered heights up to pageFrom, so the next kick sticks
	// with the SAME peer and resumes there — rotating mid-exchange would
	// restart from MinHeight and, on a node that cannot advance, never
	// terminate. A failure clears the cursor, so rotation starts a fresh
	// exchange.
	pagePeer string
	pageFrom uint64
	// exchangeMin is MinHeight when the current exchange began; an exchange
	// that completes without raising it made no progress.
	exchangeMin uint64
	// resyncArmed schedules the next exchange to start from height 0: a
	// completed exchange with no progress means the node is missing a block
	// at or below its own cursor (a fork candidate lost in a crash, say)
	// that normal paging can never re-fetch. resyncing marks the current
	// exchange as that full resync, so a fruitless resync does not re-arm
	// itself forever.
	resyncArmed bool
	resyncing   bool
	rng         *rand.Rand
}

// NewSyncer builds a syncer over the given peers (the rotation order is the
// slice order). The node's HandleSyncRequest still serves inbound requests;
// Syncer only manages this node's own catch-up.
func NewSyncer(n *Node, ep *p2p.Endpoint, peers []string, cfg SyncConfig) *Syncer {
	s := &Syncer{
		n:      n,
		ep:     ep,
		cfg:    cfg.withDefaults(),
		order:  append([]string(nil), peers...),
		health: make(map[string]*peerHealth, len(peers)),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, p := range peers {
		s.health[p] = &peerHealth{}
	}
	return s
}

// Inflight reports whether a request is outstanding.
func (s *Syncer) Inflight() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Peer returns the peer the outstanding request was sent to ("" if none).
func (s *Syncer) Peer() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inflight {
		return ""
	}
	return s.peer
}

// Kick starts a sync request if none is outstanding and backoff allows.
// Returns true if a request went out.
func (s *Syncer) Kick(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kickLocked(now)
}

// Tick expires the outstanding request's deadline (demoting and rotating
// away from the silent peer) and starts the next request once backoff has
// passed. Call it from the owner's event loop at least every few hundred
// milliseconds while behind.
func (s *Syncer) Tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight && now.After(s.deadline) {
		syncTimeouts(s.n.id).Inc()
		s.n.jr.Emit(journal.SyncTimeout, 0, journal.FS("peer", s.peer))
		s.failLocked(now, s.peer)
	}
	s.kickLocked(now)
}

// HandleBlocks ingests a MsgBlocks response. It feeds the blocks to the
// node regardless of who sent them (blocks self-validate), but only a
// response from the awaited peer clears the outstanding request and its
// health penalty. When the response is truncated (msg.More) the next
// request goes out immediately — pagination, not failure. Returns the
// number of blocks accepted and the first hard error.
func (s *Syncer) HandleBlocks(now time.Time, msg p2p.Message) (int, error) {
	accepted, err := s.n.HandleSyncResponse(msg)
	syncAccepted(s.n.id).Add(float64(accepted))
	more := uint64(0)
	if msg.More {
		more = 1
	}
	s.n.jr.Emit(journal.SyncResponse, msg.UpTo,
		journal.FS("peer", msg.From), journal.F("accepted", uint64(accepted)), journal.F("more", more))

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inflight || msg.From != s.peer {
		return accepted, err
	}
	if err != nil {
		// The awaited peer answered with invalid blocks: that is worse
		// than silence, so it takes the same failure path.
		s.failLocked(now, s.peer)
		return accepted, err
	}
	// Success: clear the request and forgive the peer.
	s.inflight = false
	syncInflight(s.n.id).Set(0)
	s.failStreak = 0
	s.backoffUntil = time.Time{}
	if h := s.health[msg.From]; h != nil {
		h.failures = 0
		h.demoted = false
	}
	if msg.More {
		// The peer capped the batch at height UpTo; keep paging there.
		s.pagePeer, s.pageFrom = msg.From, msg.UpTo
		s.kickLocked(now)
	} else {
		// Exchange complete; future rounds restart from MinHeight.
		s.pagePeer, s.pageFrom = "", 0
		noProgress := s.n.MinHeight() <= s.exchangeMin
		wasResync := s.resyncing
		s.resyncing = false
		if noProgress && !wasResync {
			// The peer served everything above our cursor and none of it
			// moved us: something we need sits at or below the cursor.
			// Re-fetch the peer's whole block set — duplicates bounce off
			// as benign, the missing candidate lands.
			s.resyncArmed = true
			syncResyncs(s.n.id).Inc()
			s.n.jr.Emit(journal.SyncResync, s.exchangeMin)
			s.kickLocked(now)
		}
	}
	return accepted, nil
}

// failLocked records a failure of the outstanding request against peer:
// health demotion, global backoff, and rotation (the cursor already moved
// past the peer at kick time, so the next kick tries someone else).
func (s *Syncer) failLocked(now time.Time, peer string) {
	s.inflight = false
	syncInflight(s.n.id).Set(0)
	// Abandon the exchange: a stale cursor carried to the next peer would
	// skip the heights it never delivered.
	s.pagePeer, s.pageFrom = "", 0
	s.resyncing = false
	if h := s.health[peer]; h != nil {
		h.failures++
		if !h.demoted && h.failures >= s.cfg.DemoteAfter {
			h.demoted = true
			syncDemotions(s.n.id).Inc()
			s.n.jr.Emit(journal.SyncDemote, 0, journal.FS("peer", peer))
		}
	}
	s.failStreak++
	s.backoffUntil = now.Add(s.backoffLocked())
}

// backoffLocked computes the jittered exponential backoff for the current
// failure streak.
func (s *Syncer) backoffLocked() time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < s.failStreak; i++ {
		d *= 2
		if d >= s.cfg.BackoffMax {
			d = s.cfg.BackoffMax
			break
		}
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	// Uniform jitter in ±JitterFrac·d, never below zero.
	j := time.Duration((s.rng.Float64()*2 - 1) * s.cfg.JitterFrac * float64(d))
	if d+j < 0 {
		return 0
	}
	return d + j
}

// kickLocked sends the next request if allowed. Reports whether it did.
func (s *Syncer) kickLocked(now time.Time) bool {
	if s.inflight || len(s.order) == 0 || now.Before(s.backoffUntil) {
		return false
	}
	peer := s.pagePeer
	if peer == "" {
		// No exchange in progress: rotate to the next healthy peer.
		p, ok := s.nextPeerLocked()
		if !ok {
			return false
		}
		peer = p
	}
	s.inflight = true
	s.peer = peer
	s.deadline = now.Add(s.cfg.RequestTimeout)
	height := s.n.MinHeight()
	if peer == s.pagePeer && (s.resyncing || s.pageFrom > height) {
		height = s.pageFrom
	} else {
		// Fresh exchange: record the baseline for progress detection and
		// consume any armed full resync.
		s.exchangeMin = height
		s.resyncing = s.resyncArmed
		s.resyncArmed = false
		if s.resyncing {
			height = 0
		}
	}
	syncRequests(s.n.id).Inc()
	syncInflight(s.n.id).Set(1)
	resync := uint64(0)
	if s.resyncing {
		resync = 1
	}
	s.n.jr.Emit(journal.SyncRequest, height,
		journal.FS("peer", peer), journal.F("resync", resync))
	// Send outside the node's lock but inside ours is fine: the simulated
	// network never blocks the sender.
	s.ep.Send(peer, p2p.Message{Type: p2p.MsgGetBlocks, Height: height})
	return true
}

// nextPeerLocked rotates to the next non-demoted peer. If every peer is
// demoted, all scores reset and rotation starts over — a stalled syncer
// must keep probing, because "all peers bad" usually means "we were the
// problem" (our own partition side, our own crash).
func (s *Syncer) nextPeerLocked() (string, bool) {
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(s.order); i++ {
			p := s.order[s.cursor%len(s.order)]
			s.cursor++
			if h := s.health[p]; h == nil || !h.demoted {
				return p, true
			}
		}
		// Every peer demoted: reset and retry once.
		for _, h := range s.health {
			h.failures = 0
			h.demoted = false
		}
	}
	return "", false
}
