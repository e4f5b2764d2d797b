// Package mvcc is the multi-version state core: per-key version chains in
// front of the authenticated trie, so that execution, commitment, and the
// next epoch's early execution share one copy-free structure instead of
// each epoch duplicating the state into a fresh snapshot (the Octopus-style
// store ROADMAP item 1 calls for).
//
// # Layout
//
// The store shards keys sixteen ways (same discipline as the statedb
// snapshot). Each key maps to a chain:
//
//	base     copy-on-read cache of the backend (trie) value, valid for
//	         every generation up to the chain's oldest version
//	versions ascending list of {generation, global version id, value}
//
// Generations count backend commits (one per statedb.Commit); every
// committed write receives a fresh global version id from one atomic
// counter, so the total write order is recoverable across keys. A View
// pins a generation g and resolves each key to the newest version with
// generation <= g, falling back to base — a copy-free read of the state
// as of generation g.
//
// # Why reads stay consistent during a concurrent commit
//
// Two rules close every race between a reader at generation g and the
// commit building generation g+1:
//
//  1. CommitEpoch appends the new versions (and eagerly loads base for any
//     written chain that lacks it, while the backend still holds the old
//     value) BEFORE the trie flush mutates the backend. A chain therefore
//     never has versions without a loaded base (invariant checked by
//     tests), and by the time the backend can return a g+1 value the chain
//     already shadows it for every reader.
//  2. A chain with no versions has had a constant value over the whole
//     live window [watermark, current generation] — any change inside the
//     window would have left a version (GC folds, it never erases history
//     above the watermark). So a backend load for a version-less chain is
//     correct for every live view no matter which root it observes, and
//     the copy-on-read step re-checks the chain under the shard lock
//     before caching: if versions appeared meanwhile, the freshly loaded
//     value is discarded in favour of the chain.
//
// Epoch-scoped write reservations (ReserveEpoch/ReleaseEpoch) mark the
// keys a commit is about to write: a defensive guard on the copy-on-read
// path, which refuses to cache a reserved key.
//
// # Reading a generation before its flush
//
// CommitEpoch returns with the new generation readable, and the backend
// flush only follows. A view at that generation is consistent from that
// moment, flush or no flush: a key the commit wrote resolves from its chain
// (rule 1), and a key it did not write has the same backend value before,
// during and after the flush (rule 2), so the load need not wait for the
// flush: statedb's loader reads the trie's committed root without a lock,
// before or after the flush moves it. The node's look-ahead run reads such
// a view to execute the next epoch while the trie seals. The one
// thing that can take the generation away again is RollbackEpoch, and it
// puts an obligation on the view's owner; see there.
//
// # Garbage collection
//
// SetWatermark(w) declares that no live view reads below generation w
// (the node advances w to the generation of its last persisted epoch).
// GC then FOLDS each chain that holds versions: the newest version at or
// below w becomes the new base and every version at or below w is dropped.
// Folding — rather than dropping — is what keeps rule 2 honest: a later
// read between w and a surviving version still sees the folded value.
// Reads below the watermark return ErrBelowWatermark.
//
// Only a commit creates versions, so each shard lists the chains written
// since they were last folded empty and GC visits those alone: an epoch's
// bookkeeping costs O(keys written), not O(keys cached). The live chain
// and version counts are running counters for the same reason.
package mvcc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/nezha-dag/nezha/internal/types"
)

// ErrBelowWatermark is returned by View.Get when the view's generation has
// been garbage-collected: the store no longer guarantees reads below the
// watermark.
var ErrBelowWatermark = errors.New("mvcc: view generation below gc watermark")

// Loader resolves a key against the backing store (the state trie).
// Missing keys return (nil, nil), matching the trie's read contract.
type Loader func(k types.Key) ([]byte, error)

// numShards matches the statedb snapshot's sharding.
const numShards = 16

// DepthBuckets are the chain-depth histogram bounds GC records into
// (Stats.DepthBuckets counts chains with depth <=1, <=2, <=4, <=8, <=16,
// and a final overflow bucket). GC samples the chains it folds — those
// written since the previous fold — not the version-less rest of the cache.
var DepthBuckets = []float64{1, 2, 4, 8, 16}

// numDepthBuckets is len(DepthBuckets) plus the overflow bucket.
const numDepthBuckets = 6

// Stats is a point-in-time snapshot of the store's counters. All fields
// are cumulative; callers exporting to a metrics registry diff against the
// previous snapshot.
type Stats struct {
	// Hits counts reads served from a chain (version or loaded base).
	Hits uint64
	// Misses counts reads that had to fall through to the backend.
	Misses uint64
	// Prefetched and PrefetchHits are always zero: the read-set prefetch
	// they counted is gone (the node's look-ahead run warms the cache by
	// executing). They stay while benchmark/ reads them (ROADMAP 4(c)).
	Prefetched, PrefetchHits uint64
	// GCVersions counts versions dropped (folded) by SetWatermark.
	GCVersions uint64
	// DepthBuckets histograms the depth (version count) of the chains GC
	// folded, observed just before the fold; bounds are DepthBuckets plus
	// a final overflow bucket.
	DepthBuckets [numDepthBuckets]uint64
	// Chains is the number of live chains (cache entries).
	Chains uint64
	// Versions is the number of live versions across all chains.
	Versions uint64
}

// version is one committed value of a key.
type version struct {
	gen uint64 // backend generation the value became visible at
	gv  uint64 // global version id (total write order across keys)
	val []byte
}

// chain is the version history plus copy-on-read base cache of one key.
type chain struct {
	versions   []version // ascending by gen
	base       []byte
	baseLoaded bool
	// listed marks a chain on its shard's written list.
	listed bool
}

// shard is one lock domain of the store.
type shard struct {
	mu       sync.RWMutex
	chains   map[types.Key]*chain
	reserved map[types.Key]struct{}
	// written lists the chains that may hold versions: CommitEpoch adds a
	// chain when it appends to it, SetWatermark drops it once it folds
	// empty (or finds a rollback already emptied it).
	written []*chain
}

// Store is the multi-version state core. Safe for concurrent use; the
// single-writer discipline of the commit phase (one CommitEpoch at a time,
// bracketed by ReserveEpoch/ReleaseEpoch) is the caller's responsibility,
// exactly as it is for statedb.Commit.
type Store struct {
	load Loader

	gen       atomic.Uint64 // latest committed generation
	nextGV    atomic.Uint64 // global version id allocator
	watermark atomic.Uint64

	hits         atomic.Uint64
	misses       atomic.Uint64
	gcVersions   atomic.Uint64
	depthBuckets [numDepthBuckets]atomic.Uint64
	chains       atomic.Uint64 // live chains
	versions     atomic.Int64  // live versions

	shards [numShards]shard
}

// New returns a store over the given backend loader, pinned at generation
// gen (the number of backend commits already applied).
func New(gen uint64, load Loader) *Store {
	st := &Store{load: load}
	st.gen.Store(gen)
	st.watermark.Store(gen)
	for i := range st.shards {
		st.shards[i].chains = make(map[types.Key]*chain)
		st.shards[i].reserved = make(map[types.Key]struct{})
	}
	return st
}

func (st *Store) shardOf(k types.Key) *shard { return &st.shards[k[0]&(numShards-1)] }

// Gen returns the latest committed generation.
func (st *Store) Gen() uint64 { return st.gen.Load() }

// Watermark returns the GC watermark: the lowest generation views may read.
func (st *Store) Watermark() uint64 { return st.watermark.Load() }

// View returns a copy-free reader pinned at generation gen. The caller
// must not read the view once the watermark has advanced past gen.
func (st *Store) View(gen uint64) *View { return &View{st: st, gen: gen} }

// Head returns a view pinned at the latest committed generation.
func (st *Store) Head() *View { return st.View(st.Gen()) }

// View reads the state as of one generation. Safe for concurrent use and
// for use concurrently with a commit building a later generation (see the
// package comment for why). Implements vm.StateReader.
type View struct {
	st  *Store
	gen uint64
}

// Gen returns the generation the view is pinned at.
func (v *View) Gen() uint64 { return v.gen }

// Get resolves a key as of the view's generation.
func (v *View) Get(k types.Key) ([]byte, error) {
	if w := v.st.watermark.Load(); v.gen < w {
		return nil, fmt.Errorf("%w: view at %d, watermark %d", ErrBelowWatermark, v.gen, w)
	}
	return v.st.readAt(k, v.gen)
}

// readAt is the shared read path: chain lookup, then copy-on-read backend
// load for version-less chains.
func (st *Store) readAt(k types.Key, gen uint64) ([]byte, error) {
	sh := st.shardOf(k)
	sh.mu.RLock()
	val, ok := sh.chains[k].resolve(gen)
	sh.mu.RUnlock()
	if ok {
		st.hits.Add(1)
		return val, nil
	}

	// Miss: load from the backend outside the lock, then re-check the
	// chain before caching (rule 2 of the package comment).
	st.misses.Add(1)
	val, err := st.load(k)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.chains[k]
	if cached, ok := c.resolve(gen); ok {
		// A commit or a racing reader populated the chain meanwhile; its
		// value is authoritative (ours may straddle the flush).
		return cached, nil
	}
	if _, res := sh.reserved[k]; res {
		// The key is about to be written by the in-flight commit; serve
		// the loaded value (still pre-flush: its version would otherwise
		// be in the chain already) but do not cache it.
		return val, nil
	}
	if c == nil {
		c = st.newChain(sh, k)
	}
	c.base = val
	c.baseLoaded = true
	return val, nil
}

// newChain adds an empty chain for k to its (locked) shard.
func (st *Store) newChain(sh *shard, k types.Key) *chain {
	c := &chain{}
	sh.chains[k] = c
	st.chains.Add(1)
	return c
}

// resolve returns the chain's value at generation gen and whether the
// chain could answer. Nil-receiver safe.
func (c *chain) resolve(gen uint64) (val []byte, ok bool) {
	if c == nil {
		return nil, false
	}
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].gen <= gen {
			return c.versions[i].val, true
		}
	}
	if c.baseLoaded {
		return c.base, true
	}
	return nil, false
}

// ReserveEpoch marks the keys the next CommitEpoch will write. The
// copy-on-read path will not cache them. Call ReleaseEpoch after the
// backend flush completes.
func (st *Store) ReserveEpoch(keys []types.Key) {
	for _, k := range keys {
		sh := st.shardOf(k)
		sh.mu.Lock()
		sh.reserved[k] = struct{}{}
		sh.mu.Unlock()
	}
}

// ReleaseEpoch clears every reservation.
func (st *Store) ReleaseEpoch() {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		clear(sh.reserved)
		sh.mu.Unlock()
	}
}

// CommitEpoch makes one backend commit's writes visible as a new
// generation and returns it. It MUST run before the backend flush mutates
// the trie, with load still resolving pre-flush values (statedb passes a
// trie reader it already holds the commit lock for): any written chain
// without a loaded base gets one here, while the old value is still
// readable, preserving the versions-imply-base invariant. Writes may list
// a key at most once (the node's write batch guarantees that).
func (st *Store) CommitEpoch(writes []types.WriteEntry, load Loader) (uint64, error) {
	if load == nil {
		load = st.load
	}
	gen := st.gen.Load() + 1
	for i, w := range writes {
		sh := st.shardOf(w.Key)
		sh.mu.Lock()
		c := sh.chains[w.Key]
		if c == nil {
			c = st.newChain(sh, w.Key)
		}
		if !c.baseLoaded && len(c.versions) == 0 {
			sh.mu.Unlock()
			old, err := load(w.Key)
			if err != nil {
				st.dropVersionsAt(gen, writes[:i])
				return 0, fmt.Errorf("mvcc: commit base load: %w", err)
			}
			sh.mu.Lock()
			// Single-writer commit discipline: nothing else appends
			// versions, so the chain is still version-less; a racing
			// reader may have loaded the same (old) base, which is
			// idempotent.
			c.base = old
			c.baseLoaded = true
		}
		c.versions = append(c.versions, version{gen: gen, gv: st.nextGV.Add(1), val: w.Value})
		st.versions.Add(1)
		if !c.listed {
			c.listed = true
			sh.written = append(sh.written, c)
		}
		sh.mu.Unlock()
	}
	st.gen.Store(gen)
	return gen, nil
}

// RollbackEpoch undoes the latest CommitEpoch after the backend flush
// FAILED or was refused: the appended versions never reached the trie, and a
// retried epoch must not observe them. Only valid immediately after a
// successful CommitEpoch whose flush did not land, before any other commit.
//
// A view may exist at the rolled-back generation — statedb.PublishAndSeal
// hands one out between CommitEpoch and the flush — and may be read while
// this runs and after. What it returns from then on is unspecified — a
// version about to be dropped, or the value under it — but it cannot damage
// the store: reads append no versions, and the
// only thing a read caches is a backend value for a chain that has no
// versions, which is the value of every generation still live. The rule is
// therefore on the view's owner, not on the store: it stops its readers,
// waits for them to return and drops everything they computed, and it does
// so before it starts the commit that will reuse the generation number.
func (st *Store) RollbackEpoch(writes []types.WriteEntry) {
	gen := st.gen.Load()
	st.dropVersionsAt(gen, writes)
	st.gen.Store(gen - 1)
}

// dropVersionsAt removes each listed key's trailing version if it sits at
// exactly the given generation (the failed commit's appends). A chain it
// empties stays on its shard's written list until the next fold skips it.
func (st *Store) dropVersionsAt(gen uint64, writes []types.WriteEntry) {
	dropped := 0
	for _, w := range writes {
		sh := st.shardOf(w.Key)
		sh.mu.Lock()
		if c := sh.chains[w.Key]; c != nil && len(c.versions) > 0 {
			if last := len(c.versions) - 1; c.versions[last].gen == gen {
				c.versions = c.versions[:last]
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	st.versions.Add(-int64(dropped))
}

// SetWatermark advances the GC watermark to w and folds every chain that
// holds versions: the newest version at or below w becomes the chain's
// base and versions at or below w are dropped. Lowering the watermark is a
// no-op, and w is clamped to the current generation (a watermark above
// every committed generation would invalidate even the head view). Returns
// the number of versions collected.
func (st *Store) SetWatermark(w uint64) int {
	if g := st.gen.Load(); w > g {
		w = g
	}
	for {
		cur := st.watermark.Load()
		if w <= cur {
			return 0
		}
		if st.watermark.CompareAndSwap(cur, w) {
			break
		}
	}
	collected := 0
	var depths [numDepthBuckets]uint64
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		keep := sh.written[:0]
		for _, c := range sh.written {
			if len(c.versions) > 0 {
				depths[depthBucket(len(c.versions))]++
				collected += c.fold(w)
			}
			if len(c.versions) > 0 {
				keep = append(keep, c)
			} else {
				c.listed = false
			}
		}
		clear(sh.written[len(keep):])
		sh.written = keep
		sh.mu.Unlock()
	}
	for i, n := range depths {
		st.depthBuckets[i].Add(n)
	}
	st.gcVersions.Add(uint64(collected))
	st.versions.Add(-int64(collected))
	return collected
}

// fold makes the newest version at or below w the chain's base, drops the
// versions at or below w and returns how many that was.
func (c *chain) fold(w uint64) int {
	cut := 0
	for cut < len(c.versions) && c.versions[cut].gen <= w {
		cut++
	}
	if cut == 0 {
		return 0
	}
	c.base = c.versions[cut-1].val
	c.baseLoaded = true
	c.versions = append(c.versions[:0], c.versions[cut:]...)
	return cut
}

// depthBucket is the index of the depth histogram bucket a chain of the
// given version count falls into.
func depthBucket(depth int) int {
	for i, bound := range DepthBuckets {
		if float64(depth) <= bound {
			return i
		}
	}
	return numDepthBuckets - 1
}

// Stats snapshots the store's counters.
func (st *Store) Stats() Stats {
	s := Stats{
		Hits:       st.hits.Load(),
		Misses:     st.misses.Load(),
		GCVersions: st.gcVersions.Load(),
		Chains:     st.chains.Load(),
		Versions:   uint64(st.versions.Load()),
	}
	for i := range st.depthBuckets {
		s.DepthBuckets[i] = st.depthBuckets[i].Load()
	}
	return s
}

// CheckInvariants walks every chain and verifies the structural rules the
// read path relies on: versions strictly ascending in generation, global
// version ids strictly ascending within a chain, no version at or below
// the watermark, and versions-imply-base — plus the two the bookkeeping
// relies on: a chain holding versions is on its shard's written list (GC
// would never fold it otherwise), and the running chain and version counts
// equal a recount. Call it between operations, not concurrently with a
// commit; tests and the fuzz target do, it is not on any hot path.
func (st *Store) CheckInvariants() error {
	w := st.watermark.Load()
	var chains, versions uint64
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		keys := make([]types.Key, 0, len(sh.chains))
		for k := range sh.chains {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
		listed := make(map[*chain]bool, len(sh.written))
		for _, c := range sh.written {
			listed[c] = true
		}
		for _, k := range keys {
			c := sh.chains[k]
			chains++
			versions += uint64(len(c.versions))
			if len(c.versions) > 0 && !c.baseLoaded {
				sh.mu.RUnlock()
				return fmt.Errorf("mvcc: key %x has versions but no base", k[:4])
			}
			if len(c.versions) > 0 && !(c.listed && listed[c]) {
				sh.mu.RUnlock()
				return fmt.Errorf("mvcc: key %x has versions but is not listed for GC", k[:4])
			}
			for j, v := range c.versions {
				if v.gen <= w {
					sh.mu.RUnlock()
					return fmt.Errorf("mvcc: key %x holds version at gen %d <= watermark %d", k[:4], v.gen, w)
				}
				if j > 0 && (v.gen <= c.versions[j-1].gen || v.gv <= c.versions[j-1].gv) {
					sh.mu.RUnlock()
					return fmt.Errorf("mvcc: key %x versions not ascending at index %d", k[:4], j)
				}
			}
		}
		sh.mu.RUnlock()
	}
	if got := st.Stats(); got.Chains != chains || got.Versions != versions {
		return fmt.Errorf("mvcc: counters say %d chains, %d versions; the store holds %d, %d", got.Chains, got.Versions, chains, versions)
	}
	return nil
}
