// Package statedb layers the blockchain state abstraction over the Merkle
// Patricia Trie and the key-value store: authenticated roots per epoch,
// cheap snapshots for speculative execution (every transaction of epoch e
// reads the state of epoch e-1, §III-B), and batched commitment ("each node
// applies the write values … and the updated elements are then flushed to
// the underlying database", §III-B).
package statedb

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

// Reader is the read API execution runs against: a copy-free mvcc.View,
// the StateDB itself, or a copied Snapshot (the references' read path). It
// matches vm.StateReader.
type Reader interface {
	Get(k types.Key) ([]byte, error)
}

// StateDB is the mutable head state. A single writer (the commit phase)
// calls Commit, and may Stage the next batch ahead of it; any number of
// readers use Snapshots or Views. StateDB itself is safe for concurrent use.
//
// Two locks: mu guards the committed state — the root and the version
// cache — and trieMu the trie's working tree, which Stage edits without mu,
// so that no reader of the committed state waits for it. A commit takes
// both, mu first; root changes only then, so either lock is enough to read
// it. Get takes neither: the trie publishes its committed root atomically
// (mpt.Trie.GetCommitted), so a cold read runs beside a commit's flush, and
// the trie reuses the nodes a commit replaces only once no such read can
// still be on them.
type StateDB struct {
	mu     sync.RWMutex
	trieMu sync.Mutex
	store  kvstore.Store
	trie   *mpt.Trie
	root   types.Hash
	// staged is the batch Stage applied to the trie and hashed ahead of its
	// commit; nil when the trie's working tree is its committed root.
	// Guarded by trieMu.
	staged *stagedBatch
	// mv is the multi-version cache in front of the trie, created on the
	// first View call (snapshot-only users never pay for it). Once it
	// exists, every Commit threads its writes through it so views stay
	// consistent with the trie.
	mv *mvcc.Store
	// keys is the commit's buffer for the keys it reserves. Guarded by mu.
	keys []types.Key
	// jr, when set, receives state/* journal events at the MVCC epoch
	// boundaries (reserve, commit, rollback, watermark). The mvcc package
	// itself is determinism-critical code the flight recorder must stay
	// out of, so the observation happens here at its call sites.
	jr *journal.Recorder
}

// SetJournal attaches a flight recorder; subsequent commits and watermark
// advances emit state/* events into it. Pass nil to detach.
func (s *StateDB) SetJournal(r *journal.Recorder) {
	s.mu.Lock()
	s.jr = r
	s.mu.Unlock()
}

// Open returns a StateDB over the given node store, rooted at root
// (mpt.EmptyRoot for a fresh chain).
func Open(store kvstore.Store, root types.Hash) *StateDB {
	return &StateDB{store: store, trie: mpt.New(root, store), root: root}
}

// Root returns the current state root.
func (s *StateDB) Root() types.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.root
}

// Get reads a key from the head state (never from a staged batch). It takes
// no lock: beside a commit it reads the trie's committed root from before
// or from after the flush, whichever it loads, and the nodes of the one it
// loaded stay as they were until it returns (see mpt.Trie.GetCommitted).
func (s *StateDB) Get(k types.Key) ([]byte, error) {
	v, _, err := s.trie.GetCommitted(k[:])
	return v, err
}

// Snapshot captures a read-only view of the current head state. Snapshots
// are immutable, safe for concurrent use, and memoize resolved values —
// speculative execution hammers the same hot keys, especially under skew.
func (s *StateDB) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn := &Snapshot{
		root: s.root,
		trie: mpt.New(s.root, s.store),
	}
	for i := range sn.shards {
		sn.shards[i].cache = make(map[types.Key][]byte)
	}
	return sn
}

// View returns a copy-free MVCC reader pinned at the current state — the
// Snapshot replacement for speculative execution. Unlike a Snapshot it
// shares the version cache with every other view and with the commit
// path, so nothing is duplicated per epoch; the view stays readable while
// a later Commit runs (it keeps resolving pre-commit values) until
// AdvanceWatermark garbage-collects its generation.
func (s *StateDB) View() *mvcc.View {
	s.mu.RLock()
	mv := s.mv
	if mv != nil {
		v := mv.Head() // generation is stable under the read lock
		s.mu.RUnlock()
		return v
	}
	s.mu.RUnlock()
	return s.ensureMVCC().Head()
}

// ensureMVCC creates the multi-version store on first use. The backend
// loader reads through StateDB.Get, which takes no lock and so may load a
// key while a commit flushes; the mvcc read path makes that safe — a key
// the commit writes is shadowed by its chain before the flush, and a load
// that straddles the commit is discarded (see the mvcc package comment).
func (s *StateDB) ensureMVCC() *mvcc.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureMVCCLocked()
}

func (s *StateDB) ensureMVCCLocked() *mvcc.Store {
	if s.mv == nil {
		s.mv = mvcc.New(0, s.Get)
	}
	return s.mv
}

// AdvanceWatermark moves the MVCC garbage-collection watermark up to the
// current committed generation — the caller's promise that no view older
// than the present state is still being read (the node makes it once an
// epoch has persisted). Returns the number of folded versions.
func (s *StateDB) AdvanceWatermark() int {
	s.mu.RLock()
	mv, jr := s.mv, s.jr
	gen := uint64(0)
	if mv != nil {
		gen = mv.Gen()
	}
	s.mu.RUnlock()
	if mv == nil {
		return 0
	}
	folded := mv.SetWatermark(gen)
	// Context event, not an alignment key: generations restart from zero
	// when a node reopens, so they are not comparable across replicas.
	jr.Emit(journal.StateWatermark, gen, journal.F("folded", uint64(folded)))
	return folded
}

// MVCCStats snapshots the version cache's counters; ok is false until the
// first View call creates the cache.
func (s *StateDB) MVCCStats() (stats mvcc.Stats, ok bool) {
	s.mu.RLock()
	mv := s.mv
	s.mu.RUnlock()
	if mv == nil {
		return mvcc.Stats{}, false
	}
	return mv.Stats(), true
}

// CheckInvariants runs mvcc.Store.CheckInvariants on the version cache, nil
// before the first View call creates it (test support: the fault tests
// look at the cache after a refused commit). Not concurrently with a commit.
func (s *StateDB) CheckInvariants() error {
	s.mu.RLock()
	mv := s.mv
	s.mu.RUnlock()
	if mv == nil {
		return nil
	}
	return mv.CheckInvariants()
}

// Commit applies the writes of one epoch to the trie as one batch, persists
// the new nodes, and returns the new root. Writes must already be
// conflict-free (distinct keys or intentional last-writer-wins order); the
// concurrency-control layer guarantees that. The node's write batch hands
// them over sorted by key, which the trie's batch descent requires; any other
// order is sorted here first (stably, so the last writer still wins).
//
// The commit is all-or-nothing: when the store refuses the flush, the
// trie, the root and every view are where they were before the call.
//
// When the MVCC cache exists the commit follows its protocol: reserve the
// written keys, append the new versions while the trie still resolves
// pre-flush values (publish), flush, then release the reservations (seal).
// Readers pinned before the commit keep seeing the old values throughout.
// PublishAndSeal is the same commit with the caller let in between the
// halves.
func (s *StateDB) Commit(writes []types.WriteEntry) (types.Hash, error) {
	root, _, err := s.CommitWide(writes, 0)
	return root, err
}

// CommitWide is Commit with the trie's share of the work — descent, hashing,
// flush ordering — spread over up to workers goroutines when the batch is
// large enough to pay for it (0 means GOMAXPROCS; the result does not depend
// on the width). It also reports how the trie used them.
func (s *StateDB) CommitWide(writes []types.WriteEntry, workers int) (types.Hash, mpt.FanStats, error) {
	root, st, err := s.PublishAndSeal(writes, workers, nil)
	return root, st.FanStats, err
}

// SealStats reports how one PublishAndSeal or Stage used the trie.
type SealStats struct {
	mpt.FanStats // how the trie used its workers in the call
	// Staged is set when the batch's trie update and hashing are Stage's:
	// by Stage when it staged the batch, by PublishAndSeal when it adopted
	// the staged batch and so only flushed it.
	Staged bool
}

// stagedBatch is a batch Stage applied to the trie: on is the committed
// root it went on top of, writes the batch as applied, sorted by key.
type stagedBatch struct {
	on     types.Hash
	writes []types.WriteEntry
}

// PublishAndSeal is the commit in its two halves, with the caller let in
// between them. Publish makes the writes readable — reservations, then the
// new versions appended as the next MVCC generation, the point from which
// the next epoch can execute. Seal makes them authenticated and durable:
// trie descent and hashing (or, when Stage did those ahead for exactly this
// batch on the current root, nothing), the store batch, then the
// reservations released. published, when non-nil, runs between the two with
// a view pinned at the just-published generation (the current one when
// writes is empty); the view is built from the version store directly, so
// handing it out takes no lock of the StateDB.
//
// published runs under the commit lock: it must not call back into the
// StateDB but Get. A reader it starts on the view does not wait for the
// seal: a cold key loads through Get, beside the flush. An error from it, like a flush the store refuses, leaves the trie
// and the root where they were — a staged batch rolled back with the rest —
// and rolls the published versions back. A reader started on the view may
// by then have seen them, so its owner stops it, waits for it and drops
// what it computed — after this call returns, never inside published, where
// the wait could be for a reader parked on the lock this call holds (the
// look-ahead run's Stage takes it; see mvcc.RollbackEpoch).
func (s *StateDB) PublishAndSeal(writes []types.WriteEntry, workers int, published func(*mvcc.View) error) (types.Hash, SealStats, error) {
	s.mu.Lock()
	s.trieMu.Lock() // a Stage in progress finishes first
	s.trie.SetWorkers(workers)
	mv := s.mv
	if published != nil {
		mv = s.ensureMVCCLocked()
	}
	versioned := mv != nil && len(writes) > 0
	if versioned {
		s.keys = s.keys[:0]
		for _, w := range writes {
			s.keys = append(s.keys, w.Key)
		}
		mv.ReserveEpoch(s.keys)
		defer mv.ReleaseEpoch()
		s.jr.Emit(journal.StateReserve, mv.Gen(), journal.F("keys", uint64(len(s.keys))))
	}
	defer s.mu.Unlock()
	defer s.trieMu.Unlock()
	// A refused seal must also unwind the versions published below: the
	// writes never reached the trie, and a retried epoch reading a view
	// would otherwise see phantom state no other node computed.
	unwind := func(err error) (types.Hash, SealStats, error) {
		s.unstageLocked()
		if versioned {
			mv.RollbackEpoch(writes)
			s.jr.Emit(journal.StateRollback, mv.Gen(), journal.F("writes", uint64(len(writes))))
		}
		return types.Hash{}, SealStats{FanStats: s.trie.Stats()}, err
	}
	if versioned {
		// Pre-flush reads: the committed root moves only in the Commit below.
		if _, err := mv.CommitEpoch(writes, s.Get); err != nil {
			s.unstageLocked()
			return types.Hash{}, SealStats{}, err
		}
	}
	if published != nil {
		if err := published(mv.Head()); err != nil {
			return unwind(err)
		}
	}
	writes = sortedByKey(writes)
	st := SealStats{Staged: s.staged != nil && s.staged.on == s.root && sameBatch(s.staged.writes, writes)}
	var err error
	if !st.Staged {
		s.unstageLocked()
		err = s.hashLocked(writes)
	}
	s.staged = nil
	var root types.Hash
	if err == nil {
		root, err = s.trie.Commit()
	}
	if err != nil {
		// The trie is back at s.root by itself; unwind the versions.
		return unwind(fmt.Errorf("statedb: commit: %w", err))
	}
	st.FanStats = s.trie.Stats()
	s.root = root
	gen := uint64(0)
	if mv != nil {
		gen = mv.Gen()
	}
	s.jr.Emit(journal.StateCommit, gen,
		journal.F("writes", uint64(len(writes))), journal.F("root", journal.FoldBytes(root[:])))
	return root, st, nil
}

// Stage is the expensive half of the next seal, done ahead of its commit:
// writes applied to the trie on top of the committed root and hashed, the
// encodings left pending. A PublishAndSeal of exactly this batch on this
// root then only flushes; a commit of anything else rolls the staged batch
// back first, as do Unstage and a failed commit. Nothing reads a staged
// batch: Get, Iterate, views and the commits' pre-flush loads all read the
// committed root, and staging emits no journal event.
//
// Stage does its work under the trie's lock alone (mu is read-locked only
// to fetch the version store), so Root, View, Get and MVCCStats never wait
// for it; it waits for a commit in progress. It stages nothing
// (Staged false) for an empty batch, once stop (which may be nil) is
// set, when the head generation is no longer pinned's — the state the
// batch was computed from was rolled back — or when the trie fails to read.
// The caller must not modify writes after staging them.
func (s *StateDB) Stage(pinned *mvcc.View, writes []types.WriteEntry, workers int, stop *atomic.Bool) SealStats {
	if len(writes) == 0 {
		return SealStats{}
	}
	s.mu.RLock()
	mv := s.mv
	s.mu.RUnlock()
	s.trieMu.Lock()
	defer s.trieMu.Unlock()
	if stop != nil && stop.Load() || mv == nil || mv.Gen() != pinned.Gen() {
		return SealStats{}
	}
	s.unstageLocked()
	writes = sortedByKey(writes)
	s.trie.SetWorkers(workers)
	if s.hashLocked(writes) != nil {
		return SealStats{} // the trie rolled itself back; the commit meets the error again
	}
	s.staged = &stagedBatch{on: s.root, writes: writes}
	return SealStats{FanStats: s.trie.Stats(), Staged: true}
}

// Unstage rolls a staged batch back, if there is one: when it returns the
// trie's working tree is its committed root.
func (s *StateDB) Unstage() {
	s.trieMu.Lock()
	s.unstageLocked()
	s.trieMu.Unlock()
}

func (s *StateDB) unstageLocked() {
	if s.staged != nil {
		s.trie.Rollback()
		s.staged = nil
	}
}

// hashLocked applies a sorted batch to the trie at its committed root and
// hashes the result, leaving the encodings for Commit — the same call
// whether a commit makes it or Stage makes it ahead. On an error the trie
// is back at the committed root. Caller holds trieMu.
func (s *StateDB) hashLocked(writes []types.WriteEntry) error {
	if err := s.trie.Update(writes); err != nil {
		return err
	}
	s.trie.RootHash()
	return nil
}

// sortedByKey returns writes in ascending key order, the order the trie's
// batch descent requires: writes itself when it already is (the node's
// write batch's case), a stably sorted copy otherwise, so the last writer of a
// key still wins.
func sortedByKey(writes []types.WriteEntry) []types.WriteEntry {
	byKey := func(a, b types.WriteEntry) int { return a.Key.Compare(b.Key) }
	if !slices.IsSortedFunc(writes, byKey) {
		writes = slices.Clone(writes)
		slices.SortStableFunc(writes, byKey)
	}
	return writes
}

// sameBatch reports whether two sorted batches write the same values to the
// same keys (an empty value deletes, however it is spelled).
func sameBatch(a, b []types.WriteEntry) bool {
	return slices.EqualFunc(a, b, func(x, y types.WriteEntry) bool {
		return x.Key == y.Key && bytes.Equal(x.Value, y.Value)
	})
}

// Iterate walks the head state in key order (test and tooling support),
// from the committed root: a staged batch is not part of it.
func (s *StateDB) Iterate(fn func(k types.Key, v []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return mpt.New(s.root, s.store).Iterate(func(key, value []byte) bool {
		var k types.Key
		if len(key) != types.KeyLen {
			// Foreign entries (non-state keys) are skipped.
			return true
		}
		copy(k[:], key)
		return fn(k, value)
	})
}

// Snapshot is an immutable view of the state at one root. The value cache
// is sharded by key prefix so that a worker pool hammering hot keys does
// not serialize on one lock.
type Snapshot struct {
	root types.Hash
	trie *mpt.Trie

	shards [16]snapshotShard
}

type snapshotShard struct {
	mu    sync.RWMutex
	cache map[types.Key][]byte
}

// Both execution read paths satisfy the shared Reader API.
var (
	_ Reader = (*Snapshot)(nil)
	_ Reader = (*mvcc.View)(nil)
)

// Root returns the snapshot's root.
func (sn *Snapshot) Root() types.Hash { return sn.root }

// Get reads a key from the snapshot; missing keys return nil.
func (sn *Snapshot) Get(k types.Key) ([]byte, error) {
	sh := &sn.shards[k[0]&0x0f]
	sh.mu.RLock()
	if v, ok := sh.cache[k]; ok {
		sh.mu.RUnlock()
		return v, nil
	}
	sh.mu.RUnlock()

	v, _, err := sn.trie.Get(k[:])
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	sh.cache[k] = v
	sh.mu.Unlock()
	return v, nil
}
