package kvstore

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"

	"github.com/nezha-dag/nezha/internal/metrics"
)

// Live memory-store gauges on the default registry, summed over every open
// Memory in the process (a store's share is taken back out by Close).
var (
	mMemKeys = metrics.Default().Gauge("nezha_kvstore_memory_keys",
		"Live keys across all open in-memory stores.")
	mMemSlots = metrics.Default().Gauge("nezha_kvstore_memory_index_slots",
		"Index slots (16 bytes each) across all open in-memory stores.")
	mMemChunkBytes = metrics.Default().Gauge("nezha_kvstore_memory_chunk_bytes",
		"Bytes reserved in record chunks across all open in-memory stores.")
	mMemDeadBytes = metrics.Default().Gauge("nezha_kvstore_memory_dead_bytes",
		"Record bytes left behind by rewrites and deletes, never reclaimed, across all open in-memory stores.")
)

// Memory is an in-memory Store: an open-addressing hash index over
// append-only records in chunks the store owns. It is safe for concurrent
// use.
//
// The layout exists for the garbage collector. A record is
// uvarint(len key) | uvarint(len value) | key | value, written once into
// the tail of the newest chunk and never moved; a slot is two words, a
// 64-bit tag of the key and the record's position, so the index holds no
// pointers and all the collector sees of a million records is the slice of
// chunk headers. The price is a copy in and a copy out: Put and Apply copy
// key and value into a chunk and keep nothing of the caller's, Get and Iter
// return copies.
//
// Lookup probes linearly from the tag's slot and compares the whole key on a
// tag match. A deleted slot becomes a tombstone, which keeps the probe chains
// that pass through it intact; the table is rebuilt, tombstones dropped,
// before live slots and tombstones together pass three quarters of it, and
// doubles then if the live keys alone would fill more than half.
//
// Nothing is reclaimed: a Delete, or a Put that changes a key's value,
// leaves the old record in its chunk for as long as the store lives
// (Stats.DeadBytes, nezha_kvstore_memory_dead_bytes). A Put that repeats the
// stored value writes nothing, which is every rewrite of a content-addressed
// trie node; the one key a node rewrites with new content is its metadata
// record, nezha/meta/v1, once per epoch when it persists. That record lists
// every epoch's root, so its dead copies add up to about 18·e² bytes after e
// epochs (18 MB at a thousand): the gauge is what an operator of a
// long-lived persisting node on a memory store watches. State nobody reads
// any more is a different matter and stays until something prunes the trie.
type Memory struct {
	mu   sync.RWMutex
	seed maphash.Seed
	// tagMask is all ones. The model test narrows it so that distinct keys
	// share a tag and only the key comparison tells them apart.
	tagMask uint64

	slots []memSlot // length a power of two
	live  int       // slots holding a record
	used  int       // live plus tombstones

	chunks   [][]byte
	reserved int64 // summed chunk capacities
	dead     int64 // record bytes no slot points at

	order []uint64 // refs of the live records in ascending key order; rebuilt lazily
	stale bool     // order does not reflect the index

	published MemoryStats // this store's share of the gauges
	closed    bool
}

// memSlot is one index entry. ref is slotEmpty, slotDead, or one more than
// the record's position (chunk number << 32 | offset in the chunk).
type memSlot struct {
	tag uint64
	ref uint64
}

const (
	slotEmpty = 0
	slotDead  = ^uint64(0)

	memMinSlots = 64
	// memChunk is a chunk's capacity; a longer record gets a chunk of its own.
	memChunk = 256 << 10
)

// MemoryStats is a Memory's size.
type MemoryStats struct {
	Keys       int   // live keys
	Slots      int   // index slots, 16 bytes each
	ChunkBytes int64 // bytes reserved in record chunks
	DeadBytes  int64 // record bytes left by rewrites and deletes; not reclaimed
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	m := &Memory{
		seed:    maphash.MakeSeed(),
		tagMask: ^uint64(0),
		slots:   make([]memSlot, memMinSlots),
	}
	m.publishLocked()
	return m
}

// Stats reports how large the store is.
func (m *Memory) Stats() MemoryStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.statsLocked()
}

func (m *Memory) statsLocked() MemoryStats {
	return MemoryStats{Keys: m.live, Slots: len(m.slots), ChunkBytes: m.reserved, DeadBytes: m.dead}
}

// publishLocked moves the gauges by what changed since the last call.
func (m *Memory) publishLocked() {
	now := m.statsLocked()
	was := m.published
	move := func(g *metrics.Gauge, delta int64) {
		if delta != 0 {
			g.Add(float64(delta))
		}
	}
	move(mMemKeys, int64(now.Keys-was.Keys))
	move(mMemSlots, int64(now.Slots-was.Slots))
	move(mMemChunkBytes, now.ChunkBytes-was.ChunkBytes)
	move(mMemDeadBytes, now.DeadBytes-was.DeadBytes)
	m.published = now
}

// Get implements Store.
func (m *Memory) Get(key []byte) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	i, found := m.find(key, m.tag(key))
	if !found {
		return nil, false, nil
	}
	_, v := m.record(m.slots[i].ref)
	return append([]byte(nil), v...), true, nil
}

// Put implements Store.
func (m *Memory) Put(key, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.putLocked(key, value)
	m.publishLocked()
	return nil
}

// Delete implements Store.
func (m *Memory) Delete(key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.deleteLocked(key)
	m.publishLocked()
	return nil
}

// Apply implements Store. It copies what it stores: the batch's buffers are
// the caller's again when it returns.
func (m *Memory) Apply(b *Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, op := range b.ops {
		if op.delete {
			m.deleteLocked(op.key)
		} else {
			m.putLocked(op.key, op.value)
		}
	}
	m.publishLocked()
	return nil
}

func (m *Memory) tag(key []byte) uint64 {
	return maphash.Bytes(m.seed, key) & m.tagMask
}

// find returns the slot holding key, or, when the key is absent, the slot an
// insert should take: the first tombstone on the probe path if there was
// one, else the empty slot that ended it. The table always has an empty
// slot (putLocked keeps used below three quarters).
func (m *Memory) find(key []byte, tag uint64) (slot int, found bool) {
	mask := len(m.slots) - 1
	free := -1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		switch s := m.slots[i]; {
		case s.ref == slotEmpty:
			if free < 0 {
				free = i
			}
			return free, false
		case s.ref == slotDead:
			if free < 0 {
				free = i
			}
		case s.tag == tag:
			if k, _ := m.record(s.ref); bytes.Equal(k, key) {
				return i, true
			}
		}
	}
}

// record decodes the record a live slot's ref names. The slices point into
// the chunk.
func (m *Memory) record(ref uint64) (key, value []byte) {
	pos := ref - 1
	rec := m.chunks[pos>>32][uint32(pos):]
	klen, n := binary.Uvarint(rec)
	vlen, w := binary.Uvarint(rec[n:])
	body := rec[n+w:]
	return body[:klen:klen], body[klen : klen+vlen : klen+vlen]
}

func recordLen(key, value []byte) int {
	return uvarintLen(len(key)) + uvarintLen(len(value)) + len(key) + len(value)
}

func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// appendRecord writes a record into the newest chunk, starting a new chunk
// when it does not fit, and returns its ref.
func (m *Memory) appendRecord(key, value []byte) uint64 {
	need := recordLen(key, value)
	c := len(m.chunks) - 1
	if c < 0 || cap(m.chunks[c])-len(m.chunks[c]) < need {
		size := max(memChunk, need)
		m.chunks = append(m.chunks, make([]byte, 0, size))
		m.reserved += int64(size)
		c++
	}
	chunk := m.chunks[c]
	pos := uint64(c)<<32 | uint64(len(chunk))
	chunk = binary.AppendUvarint(chunk, uint64(len(key)))
	chunk = binary.AppendUvarint(chunk, uint64(len(value)))
	chunk = append(chunk, key...)
	m.chunks[c] = append(chunk, value...)
	return pos + 1
}

func (m *Memory) putLocked(key, value []byte) {
	if (m.used+1)*4 > len(m.slots)*3 {
		m.rehash()
	}
	tag := m.tag(key)
	i, found := m.find(key, tag)
	s := &m.slots[i]
	if found {
		k, v := m.record(s.ref)
		if bytes.Equal(v, value) {
			return
		}
		m.dead += int64(recordLen(k, v))
	} else {
		if s.ref == slotEmpty {
			m.used++
		}
		m.live++
		s.tag = tag
	}
	s.ref = m.appendRecord(key, value)
	m.stale = true
}

func (m *Memory) deleteLocked(key []byte) {
	i, found := m.find(key, m.tag(key))
	if !found {
		return
	}
	s := &m.slots[i]
	m.dead += int64(recordLen(m.record(s.ref)))
	s.ref = slotDead
	m.live--
	m.stale = true
}

// rehash rebuilds the index without its tombstones, twice as large if the
// live keys would otherwise fill more than half of it. Live keys are
// distinct, so each goes to the first empty slot on its tag's path without
// a comparison.
func (m *Memory) rehash() {
	size := len(m.slots)
	if (m.live+1)*2 > size {
		size *= 2
	}
	old := m.slots
	m.slots = make([]memSlot, size)
	mask := size - 1
	for _, s := range old {
		if s.ref == slotEmpty || s.ref == slotDead {
			continue
		}
		i := int(s.tag) & mask
		for m.slots[i].ref != slotEmpty {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
	m.used = m.live
}

// Iter implements Store.
func (m *Memory) Iter(start, end []byte, fn func(key, value []byte) bool) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.stale {
		m.order = m.order[:0]
		for _, s := range m.slots {
			if s.ref != slotEmpty && s.ref != slotDead {
				m.order = append(m.order, s.ref)
			}
		}
		slices.SortFunc(m.order, func(a, b uint64) int {
			ka, _ := m.record(a)
			kb, _ := m.record(b)
			return bytes.Compare(ka, kb)
		})
		m.stale = false
	}
	// Snapshot the visible range so fn may call back into the store.
	type kv struct{ k, v []byte }
	var snap []kv
	from, _ := slices.BinarySearchFunc(m.order, start, func(ref uint64, start []byte) int {
		k, _ := m.record(ref)
		return bytes.Compare(k, start)
	})
	for _, ref := range m.order[from:] {
		k, v := m.record(ref)
		if end != nil && bytes.Compare(k, end) >= 0 {
			break
		}
		snap = append(snap, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
	}
	m.mu.Unlock()

	for _, e := range snap {
		if !fn(e.k, e.v) {
			return nil
		}
	}
	return nil
}

// Len returns the number of live keys.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.live
}

// Close implements Store. It lets go of the records and takes the store out
// of the gauges.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.slots, m.chunks, m.order = nil, nil, nil
	m.live, m.used, m.reserved, m.dead = 0, 0, 0, 0
	m.publishLocked()
	return nil
}
