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
	// Apply commits a batch atomically. The store may keep the batch's
	// key and value buffers instead of copying them (see Batch.Put); it
	// never modifies them.
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
	// keys is the tail of the chunk key copies are carved from: a large
	// batch allocates one chunk per few hundred operations instead of one
	// key each (chunks double up to 8 KiB, so a one-operation batch stays
	// small). A store may keep the carved slices: a chunk is never
	// rewritten.
	keys []byte
}

type batchOp struct {
	key    []byte
	value  []byte
	delete bool
}

// Put queues an insert/replace. The key is copied; the batch TAKES
// OWNERSHIP of value — the caller must not modify it afterwards, and the
// store that applies the batch may retain it without copying. Every caller
// hands over a freshly built encoding (a trie node, a block, the node
// metadata), so copying it again bought nothing.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: b.copyKey(key), value: value})
}

func (b *Batch) copyKey(key []byte) []byte {
	if cap(b.keys)-len(b.keys) < len(key) {
		b.keys = make([]byte, 0, max(len(key), min(2*cap(b.keys)+64, 8<<10)))
	}
	start := len(b.keys)
	b.keys = append(b.keys, key...)
	return b.keys[start:len(b.keys):len(b.keys)]
}

// Delete queues a removal.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: b.copyKey(key), delete: true})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse, dropping its references to the queued
// keys and values.
func (b *Batch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
}
