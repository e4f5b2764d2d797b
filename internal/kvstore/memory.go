package kvstore

import (
	"bytes"
	"sort"
	"sync"
)

// Memory is an in-memory Store backed by a map plus a lazily-maintained
// sorted key index for iteration. It is safe for concurrent use.
type Memory struct {
	mu     sync.RWMutex
	data   map[string][]byte
	keys   []string // sorted; rebuilt lazily after mutation
	dirty  bool
	closed bool
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{data: make(map[string][]byte)}
}

// Get implements Store.
func (m *Memory) Get(key []byte) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	v, ok := m.data[string(key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Put implements Store.
func (m *Memory) Put(key, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.putLocked(key, append([]byte(nil), value...))
	return nil
}

// putLocked stores value itself (the caller passes a buffer the store may
// keep) with one map operation; a grown map means a new key, which
// invalidates the sorted index.
func (m *Memory) putLocked(key, value []byte) {
	before := len(m.data)
	m.data[string(key)] = value
	if len(m.data) != before {
		m.dirty = true
	}
}

// Delete implements Store.
func (m *Memory) Delete(key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	k := string(key)
	if _, existed := m.data[k]; existed {
		delete(m.data, k)
		m.dirty = true
	}
	return nil
}

// Apply implements Store.
func (m *Memory) Apply(b *Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, op := range b.ops {
		if op.delete {
			k := string(op.key)
			if _, existed := m.data[k]; existed {
				delete(m.data, k)
				m.dirty = true
			}
			continue
		}
		m.putLocked(op.key, op.value)
	}
	return nil
}

// Iter implements Store.
func (m *Memory) Iter(start, end []byte, fn func(key, value []byte) bool) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.dirty {
		m.keys = m.keys[:0]
		for k := range m.data {
			m.keys = append(m.keys, k)
		}
		sort.Strings(m.keys)
		m.dirty = false
	}
	// Snapshot the visible range so fn may call back into the store.
	type kv struct{ k, v []byte }
	var snap []kv
	from := sort.SearchStrings(m.keys, string(start))
	for _, k := range m.keys[from:] {
		if end != nil && bytes.Compare([]byte(k), end) >= 0 {
			break
		}
		if v, ok := m.data[k]; ok {
			snap = append(snap, kv{[]byte(k), append([]byte(nil), v...)})
		}
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
	return len(m.data)
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
