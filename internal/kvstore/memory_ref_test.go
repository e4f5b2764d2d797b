package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// The model Memory is checked against is the store it replaced, reduced to
// what it promised: a map[string][]byte, and the keys sorted when somebody
// iterates. checkMemoryModel drives a store and the model with one stream of
// operations decoded from bytes (so the fuzzer can write streams too) and
// returns the first difference it can observe.

// memoryLike is what the model test drives: the Store under test, and Len.
type memoryLike interface {
	Store
	Len() int
}

// opStream decodes operations from bytes; it reads zeros once exhausted, so
// every prefix is a valid stream.
type opStream struct {
	b []byte
}

func (s *opStream) more() bool { return len(s.b) > 0 }

func (s *opStream) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// key draws from a universe small enough that streams rewrite, delete and
// re-insert the same keys: the empty key, short keys, and 32-byte hashes (the
// shape of a trie node's key).
func (s *opStream) key() []byte {
	switch n := s.next() % 48; {
	case n == 0:
		return []byte{}
	case n < 16:
		return []byte(fmt.Sprintf("k%d", n))
	default:
		h := types.HashBytes([]byte{n})
		return h[:]
	}
}

// value draws a length from nothing to more than the first chunks hold.
func (s *opStream) value() []byte {
	sizes := [...]int{0, 1, 8, 100, 600, 5000}
	return bytes.Repeat([]byte{s.next()}, sizes[s.next()%byte(len(sizes))])
}

type memModel map[string][]byte

func (m memModel) sorted(start, end []byte) []string {
	var keys []string
	for k := range m {
		if bytes.Compare([]byte(k), start) >= 0 && (end == nil || bytes.Compare([]byte(k), end) < 0) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// checkIter compares one Iter over [start, end) with the model. With mutate
// set the callback writes to the store while iterating — a key the range has
// not reached yet is deleted, another is added — and the iteration must still
// deliver the range as it stood when Iter was called.
func checkIter(s memoryLike, model memModel, start, end []byte, mutate bool) error {
	want := model.sorted(start, end)
	var got []string
	var inner error
	err := s.Iter(start, end, func(k, v []byte) bool {
		if w, ok := model[string(k)]; !ok || !bytes.Equal(v, w) {
			// Judged against the snapshot below; the model may already
			// have moved under a mutating callback.
			if !mutate {
				inner = fmt.Errorf("Iter: key %q = %x…(%d), model has %v %x…(%d)", k, head(v), len(v), ok, head(w), len(w))
				return false
			}
		}
		got = append(got, string(k))
		if mutate && len(got) == 1 && len(want) > 1 {
			last := want[len(want)-1]
			if inner = s.Delete([]byte(last)); inner != nil {
				return false
			}
			delete(model, last)
			fresh := []byte("written-while-iterating")
			if inner = s.Put(fresh, k); inner != nil {
				return false
			}
			model[string(fresh)] = append([]byte(nil), k...)
		}
		return true
	})
	if err != nil || inner != nil {
		return errors.Join(err, inner)
	}
	if len(got) != len(want) {
		return fmt.Errorf("Iter[%q,%q): %d keys, model %d", start, end, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("Iter[%q,%q): key %d is %q, model %q", start, end, i, got[i], want[i])
		}
	}
	return nil
}

func head(b []byte) []byte { return b[:min(len(b), 4)] }

func checkGet(s memoryLike, model memModel, key []byte) error {
	v, found, err := s.Get(key)
	if err != nil {
		return err
	}
	w, ok := model[string(key)]
	if found != ok || !bytes.Equal(v, w) {
		return fmt.Errorf("Get(%q) = %x…(%d) found %v, model %x…(%d) found %v", key, head(v), len(v), found, head(w), len(w), ok)
	}
	if found && len(v) > 0 {
		v[0] ^= 0xff // Get hands out a copy: this must not reach the store
		if again, _, _ := s.Get(key); !bytes.Equal(again, w) {
			return fmt.Errorf("Get(%q): writing to the returned value changed the stored one", key)
		}
	}
	return nil
}

func checkMemoryModel(s memoryLike, ops []byte) error {
	model := memModel{}
	in := &opStream{b: ops}
	for step := 0; in.more(); step++ {
		var err error
		switch op := in.next() % 10; op {
		case 0, 1, 2:
			k, v := in.key(), in.value()
			err = s.Put(k, v)
			model[string(k)] = v
		case 3:
			k := in.key()
			err = s.Delete(k)
			delete(model, string(k))
		case 4:
			var b Batch
			for n := in.next() % 8; n > 0; n-- {
				k := in.key()
				if in.next()%4 == 0 {
					b.Delete(k)
					delete(model, string(k))
				} else {
					v := in.value()
					b.Put(k, v)
					model[string(k)] = bytes.Clone(v)
				}
			}
			err = s.Apply(&b)
			// The store was handed the buffers and may not have kept them:
			// scribbling on them afterwards must not show.
			for _, o := range b.ops {
				for i := range o.value {
					o.value[i] ^= 0x55
				}
			}
		case 5, 6:
			err = checkGet(s, model, in.key())
		case 7:
			if got := s.Len(); got != len(model) {
				err = fmt.Errorf("Len = %d, model %d", got, len(model))
			}
		case 8, 9:
			start, end := in.key(), in.key()
			if in.next()%3 == 0 {
				end = nil
			}
			err = checkIter(s, model, start, end, op == 9)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	if got := s.Len(); got != len(model) {
		return fmt.Errorf("at the end: Len = %d, model %d", got, len(model))
	}
	return checkIter(s, model, nil, nil, false)
}

// randomOps is a stream of n random bytes.
func randomOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, n)
	rng.Read(ops)
	return ops
}

// narrowMemory is a store whose keys fall onto at most mask+1 tags.
func narrowMemory(mask uint64) *Memory {
	m := NewMemory()
	m.tagMask = mask
	return m
}

// TestMemoryMatchesModel: random operation streams leave Memory and the map
// model indistinguishable — with real tags, and with the tags narrowed to
// eight and to one, where every lookup is decided by the key comparison and
// every probe chain runs through other keys' slots and tombstones.
func TestMemoryMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		ops := randomOps(rng, 400+rng.Intn(3000))
		for _, mask := range []uint64{^uint64(0), 7, 0} {
			m := narrowMemory(mask)
			if err := checkMemoryModel(m, ops); err != nil {
				t.Fatalf("trial %d, tag mask %#x: %v", trial, mask, err)
			}
			st := m.Stats()
			if st.Keys != m.Len() || st.Slots < memMinSlots || st.DeadBytes < 0 || st.DeadBytes > st.ChunkBytes {
				t.Fatalf("trial %d, tag mask %#x: implausible stats %+v for %d keys", trial, mask, st, m.Len())
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMemoryChurn: inserting and deleting far more keys than are ever live
// fills the index with tombstones; it must be rebuilt (here at least three
// times at one size, which only dropping tombstones explains), keep every
// live key findable through each rebuild, and not grow with the churn.
func TestMemoryChurn(t *testing.T) {
	m := NewMemory()
	model := memModel{}
	key := func(i int) []byte { h := types.HashBytes([]byte(fmt.Sprint(i))); return h[:] }
	const live, total = 40, 2_000
	rebuilds := 0
	for i := 0; i < total; i++ {
		used := m.used
		k, v := key(i), []byte(fmt.Sprint("v", i))
		if err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = v
		if m.used < used {
			rebuilds++
		}
		if i >= live {
			old := key(i - live)
			if err := m.Delete(old); err != nil {
				t.Fatal(err)
			}
			delete(model, string(old))
		}
		if i%97 == 0 {
			for k := range model {
				if err := checkGet(m, model, []byte(k)); err != nil {
					t.Fatalf("after %d puts: %v", i+1, err)
				}
			}
		}
	}
	if err := checkIter(m, model, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if rebuilds < 3 || st.Slots > 4*memMinSlots {
		t.Fatalf("%d rebuilds, %d slots for %d live keys after %d inserts: tombstones are not being dropped", rebuilds, st.Slots, st.Keys, total)
	}
	if st.Keys != live || st.DeadBytes == 0 {
		t.Fatalf("stats %+v, want %d keys and the deleted records counted dead", st, live)
	}
}

// TestMemoryEdges: the shapes the random streams reach rarely or never.
func TestMemoryEdges(t *testing.T) {
	m := NewMemory()
	model := memModel{}
	put := func(k, v []byte) {
		t.Helper()
		if err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = v
		if err := checkGet(m, model, k); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{0xab}, 1<<20) // larger than any chunk: gets its own
	put([]byte("small-before"), []byte("x"))
	put([]byte("big"), big)
	put([]byte("small-after"), []byte("y"))
	put([]byte{}, []byte("empty key"))
	put([]byte("empty value"), []byte{})
	put(nil, nil) // the empty key again, now with an empty value
	if err := checkIter(m, model, nil, nil, false); err != nil {
		t.Fatal(err)
	}

	// A rewrite with the stored value is free; one with a new value leaves
	// the old record behind as dead bytes.
	before := m.Stats()
	put([]byte("big"), big)
	if after := m.Stats(); after != before {
		t.Fatalf("rewriting an equal value changed the store: %+v, was %+v", after, before)
	}
	put([]byte("big"), []byte("no longer"))
	if after := m.Stats(); after.DeadBytes < before.DeadBytes+1<<20 || after.Keys != before.Keys {
		t.Fatalf("replacing the big value: %+v, was %+v", after, before)
	}
	if err := checkIter(m, model, nil, nil, true); err != nil {
		t.Fatal(err)
	}

	// After Close every operation is refused, twice is harmless, and the
	// store holds nothing.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	_, _, getErr := m.Get([]byte("big"))
	for name, err := range map[string]error{
		"Get": getErr, "Put": m.Put([]byte("k"), nil), "Delete": m.Delete([]byte("k")), "Apply": m.Apply(&b),
		"Iter": m.Iter(nil, nil, func(_, _ []byte) bool { return true }),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
	if st := m.Stats(); st != (MemoryStats{}) || m.Len() != 0 {
		t.Errorf("closed store still holds %+v", st)
	}
}

// TestMemoryGauges: the process-wide gauges move by exactly one store's
// numbers while it is open and return when it closes, whatever other stores
// the process holds.
func TestMemoryGauges(t *testing.T) {
	read := func() MemoryStats {
		return MemoryStats{
			Keys: int(mMemKeys.Value()), Slots: int(mMemSlots.Value()),
			ChunkBytes: int64(mMemChunkBytes.Value()), DeadBytes: int64(mMemDeadBytes.Value()),
		}
	}
	base := read()
	m := NewMemory()
	for i := 0; i < 300; i++ {
		if err := m.Put([]byte(fmt.Sprint("key", i)), []byte(fmt.Sprint("value", i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete([]byte("key1")); err != nil {
		t.Fatal(err)
	}
	st, now := m.Stats(), read()
	if st.Keys != 299 || st.DeadBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
	delta := MemoryStats{now.Keys - base.Keys, now.Slots - base.Slots, now.ChunkBytes - base.ChunkBytes, now.DeadBytes - base.DeadBytes}
	if delta != st {
		t.Fatalf("gauges moved by %+v, the store reports %+v", delta, st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if after := read(); after != base {
		t.Fatalf("gauges after Close %+v, before the store existed %+v", after, base)
	}
}

// tagTrusting is Memory as it would behave if a lookup believed a tag match
// without comparing keys: every key is treated as the first key seen with its
// tag.
type tagTrusting struct {
	*Memory
	first map[uint64][]byte
}

func (s *tagTrusting) canon(key []byte) []byte {
	tag := s.tag(key)
	if _, ok := s.first[tag]; !ok {
		s.first[tag] = append([]byte(nil), key...)
	}
	return s.first[tag]
}

func (s *tagTrusting) Get(key []byte) ([]byte, bool, error) { return s.Memory.Get(s.canon(key)) }
func (s *tagTrusting) Put(key, value []byte) error          { return s.Memory.Put(s.canon(key), value) }
func (s *tagTrusting) Delete(key []byte) error              { return s.Memory.Delete(s.canon(key)) }

func (s *tagTrusting) Apply(b *Batch) error {
	var canon Batch
	for _, op := range b.ops {
		if op.delete {
			canon.Delete(s.canon(op.key))
		} else {
			canon.Put(s.canon(op.key), op.value)
		}
	}
	return s.Memory.Apply(&canon)
}

// TestMemoryReferenceBites is the meta-test. With the tags narrowed, two
// keys share one: the real store tells them apart and passes the model, a
// store that trusts the tag must be caught — on the two-key stream written
// out here and on nearly every random one. With real tags the same wrapper
// is harmless, which is why the model test narrows them.
func TestMemoryReferenceBites(t *testing.T) {
	trusting := func(mask uint64) memoryLike {
		return &tagTrusting{Memory: narrowMemory(mask), first: map[uint64][]byte{}}
	}
	// Put k1; Put k2; Get k1 — k1 and k2 on the only tag.
	twoKeys := []byte{0, 1, 7, 2, 0, 2, 9, 2, 5, 1}
	if err := checkMemoryModel(narrowMemory(0), twoKeys); err != nil {
		t.Fatalf("the real store fails the two-key stream: %v", err)
	}
	if err := checkMemoryModel(trusting(0), twoKeys); err == nil {
		t.Fatal("one key answering for another with its tag goes unnoticed")
	}
	rng := rand.New(rand.NewSource(29))
	caught := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		ops := randomOps(rng, 600)
		if err := checkMemoryModel(trusting(^uint64(0)), ops); err != nil {
			t.Fatalf("trial %d: with real tags the wrapper changes nothing, yet: %v", trial, err)
		}
		if checkMemoryModel(trusting(7), ops) != nil {
			caught++
		}
	}
	if caught < trials*9/10 {
		t.Fatalf("a store that skips the key comparison is noticed in only %d of %d random streams", caught, trials)
	}
}

// FuzzMemory runs fuzzer-written operation streams against the model, on
// real tags and on eight.
func FuzzMemory(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		f.Add(randomOps(rng, 200))
	}
	f.Add([]byte{0, 1, 7, 2, 0, 2, 9, 2, 5, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		for _, mask := range []uint64{^uint64(0), 7} {
			if err := checkMemoryModel(narrowMemory(mask), ops); err != nil {
				t.Fatalf("tag mask %#x: %v", mask, err)
			}
		}
	})
}

// nodeBatch fills b with an epoch's worth of trie nodes: fresh 32-byte keys,
// encodings of the sizes a commit writes (a leaf, a small branch, a full
// branch).
func nodeBatch(rng *rand.Rand, b *Batch, nodes int) {
	b.Reset()
	for j := 0; j < nodes; j++ {
		var key [32]byte
		rng.Read(key[:])
		value := make([]byte, [...]int{45, 110, 532}[j%3])
		rng.Read(value[:8])
		b.Put(key[:], value)
	}
}

// TestMemoryApplyAllocationBudget: applying an epoch's 2 300 trie nodes to a
// store that already holds a few epochs allocates a chunk or two, now and
// then a larger index or chunk list, and nothing per key.
func TestMemoryApplyAllocationBudget(t *testing.T) {
	const nodes, runs, budget = 2_300, 10, 12
	rng := rand.New(rand.NewSource(37))
	batches := make([]Batch, 4+runs+1) // AllocsPerRun warms up with one extra call
	for i := range batches {
		nodeBatch(rng, &batches[i], nodes)
	}
	m := NewMemory()
	next := 0
	apply := func() {
		if err := m.Apply(&batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 4 {
		apply()
	}
	allocs := testing.AllocsPerRun(runs, apply)
	if allocs > budget {
		t.Fatalf("Apply of %d nodes made %.0f allocations, budget %d", nodes, allocs, budget)
	}
	if m.Len() != next*nodes {
		t.Fatalf("%d keys after %d batches of %d", m.Len(), next, nodes)
	}
}

// BenchmarkMemoryApply is the store's share of a commit: one epoch's trie
// nodes per iteration into a store that keeps everything, as the node's does
// — up to 128 epochs of them, then a new store, so that memory stays bounded
// whatever the iteration count.
func BenchmarkMemoryApply(b *testing.B) {
	const nodes, epochs = 2_300, 128
	rng := rand.New(rand.NewSource(37))
	var batch Batch
	var m *Memory
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%epochs == 0 {
			if m != nil {
				m.Close()
			}
			m = NewMemory()
		}
		nodeBatch(rng, &batch, nodes)
		b.StartTimer()
		if err := m.Apply(&batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}
