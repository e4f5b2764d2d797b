package mpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/types"
)

// The arena oracle: a trie recycles the chunks its node encodings are carved
// from, and its flush batch its key chunk, once the store says it kept
// nothing of a flush (kvstore.Batch.Retained). A chunk recycled while a
// store still reads it rewrites nodes under their hashes, and some root
// committed earlier stops reading back. So every root committed along the
// way is reopened from its hash at the end, and every key, with its proof,
// is read at it against what was committed.

// arenaOracle commits 50 batches into store — sizes on both sides of the
// fan-out threshold, a fifth of the writes deletes, a refused flush every
// seventh batch — then checks every root it committed.
func arenaOracle(store kvstore.Store) error {
	refusing := &failingStore{Store: store}
	tr := New(EmptyRoot, refusing)
	tr.SetWorkers(2)
	rng := rand.New(rand.NewSource(23))
	type commit struct {
		root  types.Hash
		state map[string][]byte
	}
	var commits []commit
	model := map[string][]byte{}
	keys := map[string]bool{}
	for i := 0; i < 50; i++ {
		writes := stateBatch(rng, []int{300, 40, 150, 1, 90}[i%5], 400)
		for j := range writes {
			if rng.Intn(5) == 0 {
				writes[j].Value = nil
			}
		}
		if i%7 == 3 {
			refusing.fail = true
			if err := tr.Update(writes); err != nil {
				return err
			}
			if _, err := tr.Commit(); err == nil {
				return fmt.Errorf("batch %d: a refused flush committed", i)
			}
			refusing.fail = false
		}
		if err := tr.Update(writes); err != nil {
			return err
		}
		root, err := tr.Commit()
		if err != nil {
			return err
		}
		for _, w := range writes {
			keys[string(w.Key[:])] = true
			if len(w.Value) == 0 {
				delete(model, string(w.Key[:]))
			} else {
				model[string(w.Key[:])] = w.Value
			}
		}
		commits = append(commits, commit{root, maps.Clone(model)})
	}
	for i, c := range commits {
		reopened := New(c.root, store)
		for k := range keys {
			want, ok := c.state[k]
			got, found, err := reopened.Get([]byte(k))
			if err != nil || found != ok || !bytes.Equal(got, want) {
				return fmt.Errorf("root %d (%s): key %x reads %x (found %v, %v), committed %x", i, c.root.Short(), k[:4], got, found, err, want)
			}
			proof, err := reopened.Prove([]byte(k))
			if err != nil {
				return fmt.Errorf("root %d (%s): prove key %x: %v", i, c.root.Short(), k[:4], err)
			}
			if got, found, err := VerifyProof(c.root, []byte(k), proof); err != nil || found != ok || !bytes.Equal(got, want) {
				return fmt.Errorf("root %d (%s): proof of key %x verifies %x (found %v, %v), committed %x", i, c.root.Short(), k[:4], got, found, err, want)
			}
		}
	}
	return nil
}

// openLSM opens a durable store in a fresh directory.
func openLSM(t *testing.T, opts kvstore.LSMOptions) *kvstore.LSM {
	t.Helper()
	s, err := kvstore.OpenLSM(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestArenaReuseKeepsEveryRoot runs the oracle over the store that copies
// (Memory: the trie rewinds its chunks) and the one that keeps the slices
// (LSM, with a memtable small enough to flush tables mid-run: the trie
// carves fresh chunks).
func TestArenaReuseKeepsEveryRoot(t *testing.T) {
	stores := map[string]kvstore.Store{
		"memory": kvstore.NewMemory(),
		"lsm":    openLSM(t, kvstore.LSMOptions{MemtableBytes: 64 << 10, CompactAt: 4}),
	}
	for name, store := range stores {
		if err := arenaOracle(store); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// forgetfulStore keeps the slices of every batch it applies, as the LSM it
// wraps does, but does not say so: the LSM marks a shallow copy of the batch
// retained, and the trie's batch reads as not retained.
type forgetfulStore struct{ kvstore.Store }

func (s forgetfulStore) Apply(b *kvstore.Batch) error {
	shallow := *b
	return s.Store.Apply(&shallow)
}

// TestArenaOracleBites is the meta-test: a store that keeps the encodings
// without reporting it must fail the oracle — the trie rewinds chunks the
// memtable still reads.
func TestArenaOracleBites(t *testing.T) {
	store := forgetfulStore{openLSM(t, kvstore.LSMOptions{MemtableBytes: 1 << 30, CompactAt: 4})}
	err := arenaOracle(store)
	if err == nil {
		t.Fatal("the arena oracle passed a store that keeps the encodings without retaining the batch")
	}
	t.Logf("caught: %v", err)
}

// TestGetCommittedBesideCommit: readers call GetCommitted while one writer
// loops Update, RootHash, Commit and Rollback, the commits fanned out. Every
// value a reader sees is the key's value at some committed root between the
// last commit finished before the read and the last one begun after it: not
// a rolled-back value, not a torn node, not an older root than one already
// committed. Under -race it is the witness that GetCommitted reads nothing a
// Commit writes.
func TestGetCommittedBesideCommit(t *testing.T) {
	const keys, epochs = 300, 60
	rng := rand.New(rand.NewSource(29))
	key := func(i int) []byte { h := types.HashBytes([]byte{byte(i), byte(i >> 8)}); return h[:] }
	stamp := func(g int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(g)) }
	// plan[g] is epoch g's batch, sorted by key; plan[0] writes every key.
	plan := make([][]types.WriteEntry, epochs+1)
	batch := func(pick func(i int) bool, value func() []byte) []types.WriteEntry {
		var out []types.WriteEntry
		for i := 0; i < keys; i++ {
			if pick(i) {
				out = append(out, types.WriteEntry{Key: types.Key(key(i)), Value: value()})
			}
		}
		slices.SortFunc(out, func(a, b types.WriteEntry) int { return a.Key.Compare(b.Key) })
		return out
	}
	plan[0] = batch(func(int) bool { return true }, func() []byte { return stamp(0) })
	for g := 1; g <= epochs; g++ {
		share := []int{2, 8, 40}[g%3] // about 150, 38 and 8 writes
		plan[g] = batch(func(int) bool { return rng.Intn(share) == 0 }, func() []byte {
			if rng.Intn(6) == 0 {
				return nil
			}
			return stamp(g)
		})
	}
	junk := batch(func(i int) bool { return i%3 == 0 }, func() []byte { return []byte("rolled back") })
	// valueAt is key i's value at the root epoch g committed.
	valueAt := func(i, g int) []byte {
		for ; g >= 0; g-- {
			for _, w := range plan[g] {
				if w.Key == types.Key(key(i)) {
					return w.Value
				}
			}
		}
		return nil
	}

	tr := New(EmptyRoot, kvstore.NewMemory())
	tr.SetWorkers(4)
	if err := tr.Update(plan[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	var begun, done atomic.Int64 // the last epoch whose Commit began, and finished
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				lo := int(done.Load())
				got, found, err := tr.GetCommitted(key(i))
				hi := int(begun.Load())
				if err != nil || found != (got != nil) {
					t.Errorf("GetCommitted(key %d) = %x, %v, %v", i, got, found, err)
					return
				}
				ok := false
				for g := lo; g <= hi && !ok; g++ {
					ok = bytes.Equal(got, valueAt(i, g))
				}
				if !ok {
					t.Errorf("key %d reads %q, the value of no root committed in epochs [%d, %d]", i, got, lo, hi)
					return
				}
			}
		}(int64(r))
	}
	for g := 1; g <= epochs; g++ {
		if g%3 == 0 {
			if err := tr.Update(junk); err != nil {
				t.Fatal(err)
			}
			tr.RootHash()
			tr.Rollback()
		}
		if err := tr.Update(plan[g]); err != nil {
			t.Fatal(err)
		}
		tr.RootHash()
		begun.Store(int64(g))
		if _, err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
		done.Store(int64(g))
	}
	close(stop)
	wg.Wait()
}
