// Package mempool is the sustained-load ingestion front end (ROADMAP
// item 2): a sender-sharded transaction pool sitting between submitters
// and block assembly.
//
// Design:
//
//   - Sharding is by sender address, so one hot submitter contends on one
//     shard lock while the other shards admit in parallel. Within a shard
//     each sender owns a nonce-ordered queue.
//   - Admission is where ALL policy lives — duplicate and replay
//     rejection, replacement-by-fee, per-sender rate limits, per-sender
//     and per-shard capacity — and every rejection is a typed error the
//     submitter can react to (back off, re-price, re-sign), never a
//     silent drop. This keeps policy OUT of the determinism-critical
//     pipeline: once transactions are in blocks, the epoch pipeline
//     neither knows nor cares how they were admitted.
//   - Assembly (Assemble/MarkIncluded) is content-deterministic: given
//     the same pool contents, every call produces the same transaction
//     sequence regardless of map iteration order or admission
//     interleaving. Eviction picks its victim by a total order for the
//     same reason. That is what lets the chaos and differential oracles
//     run mempool-fed miners without giving up replayability.
//
// Backpressure contract: Admit returns nil iff the transaction is queued
// (or replaced an older pricing of itself). Every other outcome is one of
// the Err* sentinels below, wrapped with context; errors.Is works on all
// of them. AdmitBatch reports per-transaction outcomes and never aborts
// the batch. Occupancy and per-reason drop counts are exported as
// nezha_mempool_* metrics.
package mempool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nezha-dag/nezha/internal/crypto"
	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/metrics"
	"github.com/nezha-dag/nezha/internal/types"
)

// Typed admission errors — the backpressure surface submitters see.
var (
	// ErrDuplicate: the exact transaction (same content hash) is already
	// queued.
	ErrDuplicate = errors.New("mempool: duplicate transaction")
	// ErrNonceTooLow: the nonce is below the sender's inclusion floor —
	// a transaction with that nonce was already assembled into a block.
	ErrNonceTooLow = errors.New("mempool: nonce already included")
	// ErrUnderpriced: a transaction with this sender+nonce is queued and
	// the replacement does not raise its priority.
	ErrUnderpriced = errors.New("mempool: replacement does not raise priority")
	// ErrSenderLimit: the sender's queue is at SenderCap.
	ErrSenderLimit = errors.New("mempool: sender queue full")
	// ErrRateLimited: the sender exceeded its admission rate; retry later.
	ErrRateLimited = errors.New("mempool: sender rate limit exceeded")
	// ErrPoolFull: the shard is at capacity and the transaction's priority
	// does not beat the eviction victim's.
	ErrPoolFull = errors.New("mempool: shard full and priority too low")
	// ErrBadSignature: signature verification failed at admission.
	ErrBadSignature = errors.New("mempool: invalid signature")
)

// Config parameterizes a Pool. The zero value is usable: New fills every
// unset knob with the defaults below.
type Config struct {
	// Shards is the number of sender-hash shards (default 16).
	Shards int
	// ShardCap bounds queued transactions per shard (default 4096);
	// admission into a full shard evicts the shard's weakest tail
	// transaction or fails with ErrPoolFull. Negative means unbounded.
	ShardCap int
	// SenderCap bounds queued transactions per sender (default 64).
	// Negative means unbounded.
	SenderCap int
	// Rate is the per-sender admission rate in transactions per second
	// (token bucket, Burst deep); 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket depth (default: Rate rounded up, min 1).
	Burst int
	// PriorityOf orders transactions into blocks and picks eviction
	// victims. The default uses tx.Gas — the gas limit a submitter
	// attaches is this codebase's fee proxy (transactions carry no
	// separate fee field; see DESIGN.md §14).
	PriorityOf func(*types.Transaction) uint64
	// StrictNonce makes assembly take only nonce-contiguous runs per
	// sender (a gap parks everything above it until the missing nonce
	// arrives). Off by default because the legacy workload generators
	// draw nonces from a global counter, which is sparse per sender;
	// enable it together with the generators' PerSenderNonces option.
	StrictNonce bool
	// VerifySignatures makes admission check every signature with
	// crypto.VerifyTxOnce (AdmitBatch: one pass across Workers). The
	// verdict stays on the transaction, so a node fed from this pool does
	// not verify it again.
	VerifySignatures bool
	// Workers sizes AdmitBatch's signature-verification pool; 0 means
	// GOMAXPROCS.
	Workers int
	// Clock injects time for the rate limiter (tests freeze it). Rate
	// limiting is wall-clock admission policy — it never participates in
	// assembly determinism. Default time.Now.
	Clock func() time.Time
	// Tag labels the pool's failpoint hits and metrics (typically the
	// owning node's id).
	Tag string
}

func (cfg *Config) withDefaults() {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.ShardCap == 0 {
		cfg.ShardCap = 4096
	}
	if cfg.SenderCap == 0 {
		cfg.SenderCap = 64
	}
	if cfg.Burst <= 0 {
		cfg.Burst = int(cfg.Rate + 0.999)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.PriorityOf == nil {
		cfg.PriorityOf = func(tx *types.Transaction) uint64 { return tx.Gas }
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //nezha:nondeterminism-ok Clock feeds only local rate-limiter refill; admission timing is per-node, never replicated
	}
}

// senderQueue is one sender's nonce-ordered queue plus its rate-limiter
// bucket. Guarded by the owning shard's mutex.
type senderQueue struct {
	// floor is the lowest admissible nonce: one above the highest nonce
	// ever assembled into a block for this sender. 0 = nothing included.
	floor uint64
	txs   map[uint64]*types.Transaction
	// nonces mirrors the map keys in ascending order (SenderCap is small,
	// so ordered insertion is cheaper than re-sorting on every read).
	nonces []uint64
	tokens float64
	last   time.Time
}

func (q *senderQueue) insertNonce(n uint64) {
	i := sort.Search(len(q.nonces), func(i int) bool { return q.nonces[i] >= n })
	q.nonces = append(q.nonces, 0)
	copy(q.nonces[i+1:], q.nonces[i:])
	q.nonces[i] = n
}

func (q *senderQueue) removeNonce(n uint64) {
	i := sort.Search(len(q.nonces), func(i int) bool { return q.nonces[i] >= n })
	if i < len(q.nonces) && q.nonces[i] == n {
		q.nonces = append(q.nonces[:i], q.nonces[i+1:]...)
	}
}

// shard owns the senders whose addresses hash to it. size duplicates the
// queue total as an atomic so the admission fast path can pre-check
// capacity (and hit the eviction failpoint) without the lock.
type shard struct {
	mu      sync.Mutex
	senders map[types.Address]*senderQueue
	size    atomic.Int64
}

// Pool is the sharded transaction pool. All methods are safe for
// concurrent use.
type Pool struct {
	cfg    Config
	shards []*shard
	size   atomic.Int64

	admitted  *metrics.Counter
	evicted   *metrics.Counter
	occupancy *metrics.Gauge
	drops     map[string]*metrics.Counter
}

// New builds a pool and registers its nezha_mempool_* metric families on
// the process registry.
func New(cfg Config) *Pool {
	cfg.withDefaults()
	p := &Pool{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range p.shards {
		p.shards[i] = &shard{senders: make(map[types.Address]*senderQueue)}
	}
	reg := metrics.Default()
	nodeLabel := metrics.Label{Name: "node", Value: cfg.Tag}
	p.admitted = reg.Counter("nezha_mempool_admitted_total", "transactions admitted into the pool", nodeLabel)
	p.evicted = reg.Counter("nezha_mempool_evicted_total", "queued transactions evicted by capacity pressure", nodeLabel)
	p.occupancy = reg.Gauge("nezha_mempool_occupancy", "transactions currently queued", nodeLabel)
	reason := func(r string) metrics.Label { return metrics.Label{Name: "reason", Value: r} }
	p.drops = map[string]*metrics.Counter{
		dropDuplicate: reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropDuplicate)),
		dropNonceLow:  reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropNonceLow)),
		dropPriced:    reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropPriced)),
		dropSender:    reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropSender)),
		dropRate:      reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropRate)),
		dropFull:      reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropFull)),
		dropSig:       reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropSig)),
		dropInjected:  reg.Counter("nezha_mempool_dropped_total", "transactions rejected at admission, by reason", nodeLabel, reason(dropInjected)),
	}
	return p
}

// Drop-reason label values.
const (
	dropDuplicate = "duplicate"
	dropNonceLow  = "nonce_low"
	dropPriced    = "underpriced"
	dropSender    = "sender_limit"
	dropRate      = "rate_limit"
	dropFull      = "pool_full"
	dropSig       = "bad_signature"
	dropInjected  = "injected"
)

func (p *Pool) drop(reason string) {
	if c := p.drops[reason]; c != nil {
		c.Inc()
	}
}

// shardOf hashes a sender address to its shard (FNV-1a).
func (p *Pool) shardOf(addr types.Address) *shard {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range addr {
		h ^= uint64(b)
		h *= prime
	}
	return p.shards[h%uint64(len(p.shards))]
}

// Len returns the number of queued transactions.
func (p *Pool) Len() int { return int(p.size.Load()) }

// PendingFor returns how many transactions the sender has queued.
func (p *Pool) PendingFor(addr types.Address) int {
	s := p.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.senders[addr]; q != nil {
		return len(q.nonces)
	}
	return 0
}

// Floor returns the sender's inclusion floor (one above the highest nonce
// already assembled; 0 when nothing was included yet).
func (p *Pool) Floor(addr types.Address) uint64 {
	s := p.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.senders[addr]; q != nil {
		return q.floor
	}
	return 0
}

// Admit verifies (when configured) and queues one transaction. A nil
// return means the transaction is in the pool; every non-nil return wraps
// one of the Err* sentinels (or a failpoint-injected error) and counts
// into nezha_mempool_dropped_total.
func (p *Pool) Admit(tx *types.Transaction) error {
	if p.cfg.VerifySignatures {
		if err := crypto.VerifyTxOnce(tx); err != nil {
			p.drop(dropSig)
			return fmt.Errorf("%w: %v", ErrBadSignature, err)
		}
	}
	return p.admitVerified(tx)
}

// admitVerified is Admit after signature checking (AdmitBatch verifies in
// bulk and calls this directly).
func (p *Pool) admitVerified(tx *types.Transaction) error {
	// Failpoint: reject at the admission boundary — the chaos harness
	// uses it to prove submitters survive backpressure-shaped faults.
	if err := fail.HitTag(fail.MempoolAdmit, p.cfg.Tag); err != nil {
		p.drop(dropInjected)
		return fmt.Errorf("mempool: admit %s: %w", tx.From.Hex()[:8], err)
	}
	s := p.shardOf(tx.From)
	// Failpoint: the eviction decision, pre-checked outside the shard
	// lock (the atomic size may lag the locked truth by a beat — fault
	// injection tolerates approximate triggering, lock-held failpoints
	// do not tolerate the lock).
	if p.cfg.ShardCap > 0 && int(s.size.Load()) >= p.cfg.ShardCap {
		if err := fail.HitTag(fail.MempoolEvict, p.cfg.Tag); err != nil {
			p.drop(dropInjected)
			return fmt.Errorf("mempool: evict for %s: %w", tx.From.Hex()[:8], err)
		}
	}

	s.mu.Lock()
	err := p.admitLocked(s, tx)
	s.mu.Unlock()
	if err == nil {
		p.admitted.Inc()
		p.occupancy.Set(float64(p.size.Load()))
	}
	return err
}

func (p *Pool) admitLocked(s *shard, tx *types.Transaction) error {
	q := s.senders[tx.From]
	if q == nil {
		q = &senderQueue{txs: make(map[uint64]*types.Transaction), last: p.cfg.Clock()}
		if p.cfg.Rate > 0 {
			q.tokens = float64(p.cfg.Burst)
		}
		s.senders[tx.From] = q
	}
	if q.floor > 0 && tx.Nonce < q.floor {
		p.drop(dropNonceLow)
		return fmt.Errorf("%w: nonce %d < floor %d", ErrNonceTooLow, tx.Nonce, q.floor)
	}
	if old, queued := q.txs[tx.Nonce]; queued {
		// Replacement-by-fee: the same sender re-prices a queued nonce.
		// It must strictly raise the priority, else churn is free.
		if old.Hash() == tx.Hash() {
			p.drop(dropDuplicate)
			return fmt.Errorf("%w: %s nonce %d", ErrDuplicate, tx.From.Hex()[:8], tx.Nonce)
		}
		if p.cfg.PriorityOf(tx) <= p.cfg.PriorityOf(old) {
			p.drop(dropPriced)
			return fmt.Errorf("%w: nonce %d priority %d <= %d", ErrUnderpriced,
				tx.Nonce, p.cfg.PriorityOf(tx), p.cfg.PriorityOf(old))
		}
		q.txs[tx.Nonce] = tx
		return nil
	}
	// Rate limiting applies to new queue entries only (a replacement adds
	// no assembly load). Token bucket: Rate tokens/sec, Burst deep.
	if p.cfg.Rate > 0 {
		now := p.cfg.Clock()
		q.tokens += now.Sub(q.last).Seconds() * p.cfg.Rate
		q.last = now
		if q.tokens > float64(p.cfg.Burst) {
			q.tokens = float64(p.cfg.Burst)
		}
		if q.tokens < 1 {
			p.drop(dropRate)
			return fmt.Errorf("%w: %s", ErrRateLimited, tx.From.Hex()[:8])
		}
		q.tokens--
	}
	if p.cfg.SenderCap > 0 && len(q.nonces) >= p.cfg.SenderCap {
		p.drop(dropSender)
		return fmt.Errorf("%w: %s at %d", ErrSenderLimit, tx.From.Hex()[:8], len(q.nonces))
	}
	if p.cfg.ShardCap > 0 && int(s.size.Load()) >= p.cfg.ShardCap {
		if err := p.evictLocked(s, tx); err != nil {
			return err
		}
	}
	q.txs[tx.Nonce] = tx
	q.insertNonce(tx.Nonce)
	s.size.Add(1)
	p.size.Add(1)
	return nil
}

// evictLocked frees one slot in a full shard for the incoming transaction,
// or rejects the incoming transaction as the weakest.
//
// The victim is chosen by a total order over content, never by map
// iteration: each sender's only evictable transaction is its TAIL (highest
// queued nonce — evicting mid-queue would create a gap StrictNonce
// assembly could never close), and among tails the victim is the minimum
// by (priority, sender, nonce). The incoming transaction must beat the
// victim in the same order, else ErrPoolFull. Identical pool contents
// therefore always evict the same transaction.
func (p *Pool) evictLocked(s *shard, incoming *types.Transaction) error {
	var (
		victim  *types.Transaction
		victimQ *senderQueue
	)
	for addr, q := range s.senders { //nezha:nondeterminism-ok min by the total (priority, sender, nonce) order; the victim is independent of iteration order
		if len(q.nonces) == 0 {
			continue
		}
		tail := q.txs[q.nonces[len(q.nonces)-1]]
		if victim == nil || p.weaker(tail, addr, victim, victim.From) {
			victim, victimQ = tail, q
		}
	}
	if victim == nil || !p.weaker(victim, victim.From, incoming, incoming.From) {
		p.drop(dropFull)
		return fmt.Errorf("%w: shard at %d", ErrPoolFull, s.size.Load())
	}
	victimQ.removeNonce(victim.Nonce)
	delete(victimQ.txs, victim.Nonce)
	s.size.Add(-1)
	p.size.Add(-1)
	p.evicted.Inc()
	return nil
}

// weaker reports whether (a, addrA) precedes (b, addrB) in the eviction
// order: lower priority first, then higher sender address, then higher
// nonce — a strict total order because (sender, nonce) is unique.
func (p *Pool) weaker(a *types.Transaction, addrA types.Address, b *types.Transaction, addrB types.Address) bool {
	pa, pb := p.cfg.PriorityOf(a), p.cfg.PriorityOf(b)
	if pa != pb {
		return pa < pb
	}
	if c := bytes.Compare(addrA[:], addrB[:]); c != 0 {
		return c > 0
	}
	return a.Nonce > b.Nonce
}

// AdmitBatch admits a batch, checking signatures across the worker pool
// first (crypto.VerifyTxsOnce, so a gossip burst pays per-core signature
// cost, not per-tx). It returns the number admitted and one error slot per
// input (nil = admitted).
func (p *Pool) AdmitBatch(txs []*types.Transaction) (int, []error) {
	var errs []error
	if p.cfg.VerifySignatures {
		errs = crypto.VerifyTxsOnce(txs, p.cfg.Workers)
	}
	if errs == nil {
		errs = make([]error, len(txs))
	}
	admitted := 0
	for i, tx := range txs {
		if errs[i] != nil {
			p.drop(dropSig)
			errs[i] = fmt.Errorf("%w: %v", ErrBadSignature, errs[i])
			continue
		}
		if errs[i] = p.admitVerified(tx); errs[i] == nil {
			admitted++
		}
	}
	return admitted, errs
}

// assemblyRun is one sender's candidate sequence during Assemble.
type assemblyRun struct {
	prio uint64 // head transaction's priority
	from types.Address
	txs  []*types.Transaction
}

// Assemble returns up to max transactions in block order without removing
// them (the miner calls MarkIncluded once the block actually mines).
//
// Order is content-deterministic: per sender, the queue's ascending-nonce
// prefix (contiguous when StrictNonce, the whole queue otherwise); across
// senders, runs sort by (head priority desc, sender asc) and are taken
// whole until max truncates the last one. Two pools holding the same
// transactions assemble the same sequence.
func (p *Pool) Assemble(max int) []*types.Transaction {
	if max <= 0 || p.Len() == 0 {
		return nil
	}
	var runs []assemblyRun
	for _, s := range p.shards {
		s.mu.Lock()
		for addr, q := range s.senders {
			if len(q.nonces) == 0 {
				continue
			}
			if p.cfg.StrictNonce && q.floor > 0 && q.nonces[0] != q.floor {
				continue // known gap at the front: the next expected nonce is missing
			}
			run := assemblyRun{from: addr}
			prev := q.nonces[0]
			for i, n := range q.nonces {
				if p.cfg.StrictNonce && i > 0 && n != prev+1 {
					break // park everything above the gap
				}
				run.txs = append(run.txs, q.txs[n])
				prev = n
			}
			run.prio = p.cfg.PriorityOf(run.txs[0])
			runs = append(runs, run)
		}
		s.mu.Unlock()
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].prio != runs[j].prio {
			return runs[i].prio > runs[j].prio
		}
		return bytes.Compare(runs[i].from[:], runs[j].from[:]) < 0
	})
	out := make([]*types.Transaction, 0, max)
	for _, run := range runs {
		for _, tx := range run.txs {
			if len(out) == max {
				return out
			}
			out = append(out, tx)
		}
	}
	return out
}

// MarkIncluded removes assembled transactions and advances each sender's
// inclusion floor past them, so re-gossiped copies bounce off
// ErrNonceTooLow instead of re-entering the pool.
func (p *Pool) MarkIncluded(txs []*types.Transaction) {
	for _, tx := range txs {
		s := p.shardOf(tx.From)
		s.mu.Lock()
		if q := s.senders[tx.From]; q != nil {
			if _, queued := q.txs[tx.Nonce]; queued {
				delete(q.txs, tx.Nonce)
				q.removeNonce(tx.Nonce)
				s.size.Add(-1)
				p.size.Add(-1)
			}
			if tx.Nonce+1 > q.floor {
				q.floor = tx.Nonce + 1
			}
		}
		s.mu.Unlock()
	}
	p.occupancy.Set(float64(p.size.Load()))
}
