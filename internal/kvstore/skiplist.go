package kvstore

import (
	"bytes"
	"math/rand"
)

// skiplist is the LSM memtable: a probabilistic ordered map from byte-string
// keys to values, the classic LevelDB/RocksDB memtable structure. A nil
// value slice paired with tombstone=true records a deletion that must mask
// older SSTable entries.
//
// The list is NOT internally synchronized; the owning LSM store serializes
// access.
type skiplist struct {
	head   *skipNode
	rng    *rand.Rand
	level  int
	length int
	bytes  int // approximate payload size, drives memtable flush
}

const skipMaxLevel = 16

type skipNode struct {
	key       []byte
	value     []byte
	tombstone bool
	next      [skipMaxLevel]*skipNode
}

// newSkiplist returns an empty memtable. The tower-height RNG is seeded
// deterministically: the structure (not just content) of a run is then
// reproducible, which keeps benchmark variance down.
func newSkiplist() *skiplist {
	return &skiplist{head: &skipNode{}, rng: rand.New(rand.NewSource(0xdecaf)), level: 1}
}

func (s *skiplist) randomLevel() int {
	level := 1
	for level < skipMaxLevel && s.rng.Intn(4) == 0 {
		level++
	}
	return level
}

// put inserts or replaces key. tombstone marks a deletion record.
func (s *skiplist) put(key, value []byte, tombstone bool) {
	var update [skipMaxLevel]*skipNode
	node := s.head
	for i := s.level - 1; i >= 0; i-- {
		for node.next[i] != nil && bytes.Compare(node.next[i].key, key) < 0 {
			node = node.next[i]
		}
		update[i] = node
	}
	target := node.next[0]
	if target != nil && bytes.Equal(target.key, key) {
		s.bytes += len(value) - len(target.value)
		target.value = value
		target.tombstone = tombstone
		return
	}
	level := s.randomLevel()
	if level > s.level {
		for i := s.level; i < level; i++ {
			update[i] = s.head
		}
		s.level = level
	}
	fresh := &skipNode{key: key, value: value, tombstone: tombstone}
	for i := 0; i < level; i++ {
		fresh.next[i] = update[i].next[i]
		update[i].next[i] = fresh
	}
	s.length++
	s.bytes += len(key) + len(value) + 48 // node overhead estimate
}

// get returns the entry for key. ok is false when the key has no record at
// all; tombstone is true when the newest record is a deletion.
func (s *skiplist) get(key []byte) (value []byte, tombstone, ok bool) {
	node := s.head
	for i := s.level - 1; i >= 0; i-- {
		for node.next[i] != nil && bytes.Compare(node.next[i].key, key) < 0 {
			node = node.next[i]
		}
	}
	node = node.next[0]
	if node == nil || !bytes.Equal(node.key, key) {
		return nil, false, false
	}
	return node.value, node.tombstone, true
}

// cursor returns a run over the entries with key >= start, in order,
// tombstones included. The list must not change while the run is in use.
func (s *skiplist) cursor(start []byte) run {
	node := s.head
	for i := s.level - 1; i >= 0; i-- {
		for node.next[i] != nil && bytes.Compare(node.next[i].key, start) < 0 {
			node = node.next[i]
		}
	}
	node = node.next[0]
	return func() (sstEntry, bool, error) {
		if node == nil {
			return sstEntry{}, false, nil
		}
		e := sstEntry{key: node.key, value: node.value, tombstone: node.tombstone}
		node = node.next[0]
		return e, true, nil
	}
}
