// Package kvstore is the reproduction's embedded key-value storage engine —
// the substitute for the LevelDB instance the paper's prototype stores block
// and state data in (§V). Two backends implement one Store interface:
//
//   - Memory: a hash index of pointer-free slots over append-only records
//     in chunks the store owns, so the garbage collector has nothing to walk
//     however many keys it holds; never pruned. For tests, benchmarks and
//     nodes that need no durability.
//   - LSM: a log-structured merge store in the LevelDB tradition —
//     write-ahead log, skiplist memtable, sorted-string-table files —
//     durable across restarts. Writers only append to the log and insert
//     into the memtable; a worker goroutine flushes sealed memtables and
//     compacts the newest tables with a streaming merge, off the write
//     path.
//
// Keys and values are arbitrary byte strings; iteration is in ascending
// lexicographic key order.
package kvstore

import "errors"

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// Store is an embedded key-value store.
type Store interface {
	// Get returns the value for key; found is false when absent.
	Get(key []byte) (value []byte, found bool, err error)
	// Put inserts or replaces a key.
	Put(key, value []byte) error
	// Delete removes a key; deleting an absent key is not an error.
	Delete(key []byte) error
	// Apply commits a batch atomically. It never modifies the batch's key
	// and value buffers. A store of this package that keeps any of them
	// instead of copying marks the batch retained, and the batch's owner,
	// which asks b.Retained before it resets the batch, then never writes
	// over them; an implementation elsewhere must copy what it keeps.
	Apply(b *Batch) error
	// Iter calls fn for every key in [start, end) in ascending order; a nil
	// end means "to the last key". fn returning false stops iteration.
	Iter(start, end []byte, fn func(key, value []byte) bool) error
	// Close releases resources; the store must not be used afterwards.
	Close() error
}

// Batch is a set of writes applied atomically by Store.Apply. Later
// operations on the same key override earlier ones.
type Batch struct {
	ops []batchOp
	// keys is the chunk key copies are carved from, carved up to its
	// length: a large batch allocates one chunk per few hundred operations
	// instead of one key each. While a store may keep the carved slices, a
	// full chunk is replaced, never rewritten, and chunks double up to 8
	// KiB so that a one-operation batch stays small. Once a store applied
	// the batch without keeping them, Reset carves the chunk again from its
	// start (sized to the whole of the batch's keys when they overflowed
	// it), so a steady stream of batches allocates no key chunk at all.
	keys     []byte
	carved   int  // key bytes carved since the last Reset
	kept     bool // a store keeps slices carved from keys
	retained bool // the store that applied the batch kept its buffers
}

type batchOp struct {
	key    []byte
	value  []byte
	delete bool
}

// Put queues an insert/replace. The key is copied; the batch TAKES
// OWNERSHIP of value — the caller must not modify it afterwards unless the
// store that applied the batch did not retain it (Retained). Every caller
// hands over a freshly built encoding (a trie node, a block, the node
// metadata), so copying it again bought nothing.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: b.copyKey(key), value: value})
}

func (b *Batch) copyKey(key []byte) []byte {
	if cap(b.keys)-len(b.keys) < len(key) {
		b.keys, b.kept = make([]byte, 0, max(len(key), min(2*cap(b.keys)+64, 8<<10))), false
	}
	start := len(b.keys)
	b.keys = append(b.keys, key...)
	b.carved += len(key)
	return b.keys[start:len(b.keys):len(b.keys)]
}

// Delete queues a removal.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: b.copyKey(key), delete: true})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Retained reports whether the store that applied the batch kept its key or
// value buffers past Apply (the LSM's memtable does). Until Reset, a batch
// no store retained leaves the values it was handed free to be written
// over.
func (b *Batch) Retained() bool { return b.retained }

// Reset clears the batch for reuse, dropping its references to the queued
// keys and values. Unless a store retained the batch, its key chunk is
// carved again from the start.
func (b *Batch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
	switch {
	case b.retained:
		b.kept = true
	case b.kept || b.carved > cap(b.keys):
		b.keys, b.kept = make([]byte, 0, b.carved), false
	default:
		b.keys = b.keys[:0]
	}
	b.carved, b.retained = 0, false
}
