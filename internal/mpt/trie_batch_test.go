package mpt

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/types"
)

// The batch update is checked against the per-key reference in
// trie_ref_test.go by running one program — batches of puts and deletes,
// interleaved with RootHash, Commit and reopen-from-hash — through both and
// comparing everything observable after every step.
//
// Every program runs at each fan-out width with the threshold taken away
// (newOracleTrie), so even these tiny batches are cut at a root branch,
// their subtrees rewritten, hashed and sorted by separate workers and the
// queues merged — and must still match the reference in everything above,
// which is what "the width changes nothing" means.
//
// A program is a byte string so the fuzzer can drive the same harness:
//
//	step   := header entry*
//	header := one byte: bits 0-1 what follows the batch (0 nothing,
//	          1 RootHash, 2 Commit, 3 Commit and reopen both tries from the
//	          root hash), bits 2-5 the number of entries
//	entry  := key byte, value byte
//
// The key byte picks one of 85 keys of 0-3 bytes over the alphabet
// {00, 01, 10, 11}: prefix keys, the empty key, leaves that split and
// branches that collapse into extensions are the common case, not the
// corner. A value byte with its low two bits clear deletes the key.

var oracleAlphabet = [4]byte{0x00, 0x01, 0x10, 0x11}

func oracleKey(b byte) []byte {
	key := make([]byte, b&3)
	for i := range key {
		key[i] = oracleAlphabet[b>>(2+2*i)&3]
	}
	return key
}

func oracleValue(b byte) []byte {
	return bytes.Repeat([]byte{b}, int(b&3))
}

type oracleStep struct {
	batch []entry // sorted by key, writes to one key in program order
	then  byte
}

func decodeOracleProgram(program []byte) []oracleStep {
	var steps []oracleStep
	for len(program) > 0 {
		step := oracleStep{then: program[0] & 3}
		n := int(program[0] >> 2 & 0x0f)
		program = program[1:]
		for ; n > 0 && len(program) >= 2; n-- {
			step.batch = append(step.batch, entry{key: oracleKey(program[0]), value: oracleValue(program[1])})
			program = program[2:]
		}
		sort.SliceStable(step.batch, func(i, j int) bool { return bytes.Compare(step.batch[i].key, step.batch[j].key) < 0 })
		steps = append(steps, step)
	}
	return steps
}

func randomOracleProgram(rng *rand.Rand) []byte {
	var program []byte
	for steps := 2 + rng.Intn(12); steps > 0; steps-- {
		n := rng.Intn(16)
		program = append(program, byte(n<<2|rng.Intn(4)))
		for ; n > 0; n-- {
			value := byte(rng.Intn(256))
			if rng.Intn(4) > 0 {
				value |= 1 // three in four entries are puts
			}
			program = append(program, byte(rng.Intn(256)), value)
		}
	}
	return program
}

// recordingStore remembers, per Apply, the set of pairs written and how
// many operations carried them.
type recordingStore struct {
	*kvstore.Memory
	writes []map[string]string
	ops    []int
}

func (r *recordingStore) Apply(b *kvstore.Batch) error {
	seen := kvstore.NewMemory()
	if err := seen.Apply(b); err != nil {
		return err
	}
	r.writes = append(r.writes, storeContents(seen))
	r.ops = append(r.ops, b.Len())
	return r.Memory.Apply(b)
}

func storeContents(s kvstore.Store) map[string]string {
	out := map[string]string{}
	_ = s.Iter(nil, nil, func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	})
	return out
}

// oracleWidths are the fan-out widths every program runs at: inline, the
// reference box's two, one that does not divide sixteen, and the most.
var oracleWidths = [4]int{1, 2, 3, 16}

// newOracleTrie opens a trie that fans out across width workers whatever
// the batch size.
func newOracleTrie(root types.Hash, store kvstore.Store, width int) *Trie {
	tr := New(root, store)
	tr.SetWorkers(width)
	tr.fanMin = 1
	return tr
}

// trieOps is how the oracle drives the trie under test; the meta-tests
// plant their faults by replacing one.
type trieOps struct {
	update func(*Trie, []entry) error
	hash   func(*Trie) types.Hash
	commit func(*Trie) (types.Hash, error)
}

var realOps = trieOps{update: (*Trie).update, hash: (*Trie).RootHash, commit: (*Trie).Commit}

// runBatchOracle runs the program through a Trie of the given width and the
// reference, and returns the first difference it can observe.
func runBatchOracle(program []byte, width int, ops trieOps) error {
	store, refStore := &recordingStore{Memory: kvstore.NewMemory()}, &recordingStore{Memory: kvstore.NewMemory()}
	tr, ref := newOracleTrie(EmptyRoot, store, width), newRefTrie(EmptyRoot, refStore)
	shadow := map[string]string{}
	insertOnly := true // no delete and no repeated key since the last commit

	for i, step := range decodeOracleProgram(program) {
		for j, e := range step.batch {
			if len(e.value) == 0 || j > 0 && bytes.Equal(e.key, step.batch[j-1].key) {
				insertOnly = false
			}
			if err := ref.Put(e.key, e.value); err != nil {
				return fmt.Errorf("step %d: reference put: %w", i, err)
			}
			if delete(shadow, string(e.key)); len(e.value) > 0 {
				shadow[string(e.key)] = string(e.value)
			}
		}
		if err := ops.update(tr, append([]entry(nil), step.batch...)); err != nil {
			return fmt.Errorf("step %d: update: %w", i, err)
		}
		if step.then == 0 {
			continue
		}
		root, refRoot := ops.hash(tr), ref.RootHash()
		if root != refRoot {
			return fmt.Errorf("step %d: root %s, reference %s", i, root.Short(), refRoot.Short())
		}
		if err := checkContents(tr, root, shadow); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		if step.then == 1 {
			continue
		}
		commits, refCommits := len(store.writes), len(refStore.writes)
		if got, err := ops.commit(tr); err != nil || got != root {
			return fmt.Errorf("step %d: commit = %s, %v; root was %s", i, got.Short(), err, root.Short())
		}
		if _, err := ref.Commit(); err != nil {
			return fmt.Errorf("step %d: reference commit: %w", i, err)
		}
		var wrote, refWrote map[string]string
		if len(store.writes) > commits {
			wrote = store.writes[commits]
			if ops := store.ops[commits]; ops != len(wrote) {
				return fmt.Errorf("step %d: %d operations for %d distinct nodes", i, ops, len(wrote))
			}
		}
		if len(refStore.writes) > refCommits {
			refWrote = refStore.writes[refCommits]
		}
		// The reference rewrites some nodes that did not change (a branch
		// it collapsed and split again, a child it decoded to merge); the
		// batch update may skip those but must never write anything else,
		// and without deletes the two write exactly the same nodes.
		for h, enc := range wrote {
			if refWrote[h] != enc {
				return fmt.Errorf("step %d: wrote node %x the reference did not", i, h[:4])
			}
		}
		if insertOnly && len(wrote) != len(refWrote) {
			return fmt.Errorf("step %d: wrote %d nodes, reference %d", i, len(wrote), len(refWrote))
		}
		if got, want := storeContents(store.Memory), storeContents(refStore.Memory); !maps.Equal(got, want) {
			return fmt.Errorf("step %d: store holds %d nodes, reference %d (or different ones)", i, len(got), len(want))
		}
		if err := checkRecycled(tr); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		insertOnly = true
		if step.then == 3 {
			tr, ref = newOracleTrie(root, store, width), newRefTrie(root, refStore)
		}
	}
	return nil
}

// checkContents compares Iterate with the shadow map, and reads and proves
// every key of the oracle's key space, present or absent, against root.
func checkContents(tr *Trie, root types.Hash, shadow map[string]string) error {
	var keys []string
	err := tr.Iterate(func(k, v []byte) bool {
		keys = append(keys, string(k))
		if shadow[string(k)] != string(v) {
			err := fmt.Errorf("iterate: %x = %x, want %x", k, v, shadow[string(k)])
			keys = append(keys, err.Error()) // length check below fails
		}
		return true
	})
	if err != nil {
		return err
	}
	if len(keys) != len(shadow) || !sort.StringsAreSorted(keys) {
		return fmt.Errorf("iterate: visited %q, want the %d keys of the model in order", keys, len(shadow))
	}
	for b := 0; b < 256; b++ {
		if b&3 < 3 && b>>(2+2*(b&3)) != 0 {
			continue // the unused high bits only repeat a shorter key
		}
		key := oracleKey(byte(b))
		want, wantFound := shadow[string(key)]
		if got, found, err := tr.Get(key); err != nil || found != wantFound || string(got) != want {
			return fmt.Errorf("get %x = %x, %v, %v; want %x, %v", key, got, found, err, want, wantFound)
		}
		proof, err := tr.Prove(key)
		if err != nil {
			return fmt.Errorf("prove %x: %w", key, err)
		}
		value, found, err := VerifyProof(root, key, proof)
		if err != nil || found != wantFound || string(value) != want {
			return fmt.Errorf("proof of %x = %x, %v, %v; want %x, %v", key, value, found, err, want, wantFound)
		}
	}
	return nil
}

// handBuiltOraclePrograms name the shapes the random programs are meant to
// reach, so that each is exercised whatever the seed.
var handBuiltOraclePrograms = map[string][]byte{
	// "", 00, 00 00, 00 00 00: every key a prefix of the next.
	"prefix-chain": {4<<2 | 2, 0x00, 1, 0x01, 1, 0x02, 1, 0x03, 1},
	// A leaf split by a longer and by a diverging key in one batch.
	"leaf-split": {1<<2 | 2, 0x02, 1, 2<<2 | 3, 0x03, 1, 0x06, 1},
	// The empty key alone, then under a branch, then alone again.
	"empty-key-leaf": {1<<2 | 2, 0x00, 1, 2<<2 | 2, 0x01, 1, 0x05, 1, 2<<2 | 2, 0x01, 0, 0x05, 0},
	// Overwrite in place after a RootHash without Commit.
	"overwrite-hashed": {2<<2 | 1, 0x03, 1, 0x07, 1, 1<<2 | 1, 0x03, 3, 1<<2 | 2, 0x07, 2},
	// Three keys under one branch; deleting one leaves a branch, deleting a
	// second collapses it into an extension-free leaf, after a reopen too.
	"delete-collapse": {3<<2 | 3, 0x03, 1, 0x07, 1, 0x43, 1, 1<<2 | 3, 0x07, 0, 1<<2 | 2, 0x43, 0},
	// Delete and reinsert one key in one batch; duplicates, last wins.
	"delete-reinsert": {2<<2 | 2, 0x03, 1, 0x07, 1, 3<<2 | 2, 0x03, 0, 0x03, 2, 0x03, 3},
	"put-then-delete": {1<<2 | 2, 0x03, 1, 2<<2 | 2, 0x07, 1, 0x07, 0},
	// Deletes of absent keys, alone and next to a put, must dirty nothing.
	"delete-absent": {3<<2 | 2, 0x03, 1, 0x07, 1, 0x0b, 1, 2<<2 | 2, 0x43, 0, 0x02, 0, 2<<2 | 2, 0x43, 0, 0x0f, 1},
	// Everything deleted in one batch.
	"delete-all": {3<<2 | 3, 0x00, 1, 0x03, 1, 0x07, 1, 3<<2 | 2, 0x00, 0, 0x03, 0, 0x07, 0},
	// The shapes a fan-out meets at the root. 00, 01, 10, 11 stand a root
	// branch over two sub-branches; after a reopen the root and both
	// children are hash references the workers resolve side by side, both
	// subtrees change in one batch (a sub-branch splits, the other
	// collapses), the empty key lands on the root branch itself, and then
	// everything under nibble 1 and the empty key go, which collapses the
	// root branch into an extension.
	"fan-reopen-collapse": {4<<2 | 3, 0x01, 1, 0x05, 1, 0x09, 2, 0x0d, 3,
		5<<2 | 3, 0x00, 3, 0x02, 1, 0x0a, 1, 0x05, 0, 0x0d, 0,
		3<<2 | 3, 0x00, 0, 0x09, 0, 0x0a, 0},
	// Several updates, one of them hashed, before one Commit: a subtree a
	// worker hashed is dirtied again through both nibbles.
	"fan-updates-before-commit": {2<<2 | 0, 0x01, 1, 0x09, 1, 2<<2 | 1, 0x05, 1, 0x0d, 1,
		2<<2 | 0, 0x01, 2, 0x0a, 1, 2<<2 | 2, 0x09, 0, 0x02, 3},
	// The root a leaf, then a short node over a branch (both keys start
	// 0), then a branch once nibble 1 arrives; and back.
	"fan-short-root": {1<<2 | 2, 0x01, 1, 1<<2 | 2, 0x05, 1, 2<<2 | 3, 0x09, 1, 0x0d, 1, 2<<2 | 2, 0x09, 0, 0x0d, 0},
	// The same leaf tail and value under both nibbles: two workers queue
	// one encoding each, and the merge must write it once.
	"fan-equal-leaves": {4<<2 | 2, 0x02, 1, 0x0a, 1, 0x06, 1, 0x0e, 1},
}

func TestBatchMatchesReference(t *testing.T) {
	for _, width := range oracleWidths {
		for name, program := range handBuiltOraclePrograms {
			if err := runBatchOracle(program, width, realOps); err != nil {
				t.Errorf("width %d, %s: %v", width, name, err)
			}
		}
		// Fewer programs at the wider widths: every step of every program
		// starts that many goroutines three times over, which is what the
		// race detector is slowest at.
		rng := rand.New(rand.NewSource(15))
		for trial := 0; trial < 400/width; trial++ {
			program := randomOracleProgram(rng)
			if err := runBatchOracle(program, width, realOps); err != nil {
				t.Fatalf("width %d, trial %d, program %x: %v", width, trial, program, err)
			}
		}
	}
}

// TestBatchOracleBites is the meta-test: an update that forgets to drop a
// node's cached hash when it mutates the node in place — the one mistake
// copy-once-per-commit invites — must be told apart by the same harness,
// otherwise the comparison above pins nothing about in-place mutation.
func TestBatchOracleBites(t *testing.T) {
	staleHash := func(tr *Trie, batch []entry) error {
		stale := map[node]types.Hash{}
		walkOwned(tr, tr.root, func(n node) {
			if h, ok := n.cachedHash(); ok {
				stale[n] = h
			}
		})
		err := tr.update(batch)
		walkOwned(tr, tr.root, func(n node) {
			h, mutated := stale[n]
			switch n := n.(type) {
			case *shortNode:
				if mutated && !n.hasHash {
					n.hash, n.hasHash = h, true
				}
			case *branchNode:
				if mutated && !n.hasHash {
					n.hash, n.hasHash = h, true
				}
			}
		})
		return err
	}
	planted := realOps
	planted.update = staleHash
	if err := runBatchOracle(handBuiltOraclePrograms["overwrite-hashed"], 1, planted); err == nil {
		t.Fatal("a stale hash on an overwritten leaf goes unnoticed")
	}
	rng := rand.New(rand.NewSource(15))
	caught := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		if runBatchOracle(randomOracleProgram(rng), 1, planted) != nil {
			caught++
		}
	}
	if caught < trials/4 {
		t.Fatalf("the stale hash cache is noticed in only %d of %d random programs", caught, trials)
	}
}

// walkOwned visits the in-memory nodes the current commit owns.
func walkOwned(tr *Trie, n node, fn func(node)) {
	switch n := n.(type) {
	case *shortNode:
		if n.gen == tr.gen {
			fn(n)
		}
		walkOwned(tr, n.val, fn)
	case *branchNode:
		if n.gen == tr.gen {
			fn(n)
		}
		for _, c := range n.children {
			walkOwned(tr, c, fn)
		}
	}
}

// FuzzTrieBatch: the first byte of the input picks the fan-out width (its
// low two bits index oracleWidths), the rest is the program.
func FuzzTrieBatch(f *testing.F) {
	for w := range oracleWidths {
		for _, program := range handBuiltOraclePrograms {
			f.Add(append([]byte{byte(w)}, program...))
		}
		f.Add(append([]byte{byte(w)}, randomOracleProgram(rand.New(rand.NewSource(1)))...))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) == 0 {
			return
		}
		width, program := oracleWidths[input[0]&3], input[1:]
		if len(program) > 1024 {
			program = program[:1024] // bound trie size, not coverage
		}
		if err := runBatchOracle(program, width, realOps); err != nil {
			t.Fatal(err)
		}
	})
}

// stateBatch builds n sorted writes to 32-byte keys drawn from a space of
// the given size (so batches overlap earlier ones).
func stateBatch(rng *rand.Rand, n, space int) []types.WriteEntry {
	seen := map[int]bool{}
	var writes []types.WriteEntry
	for len(writes) < n {
		i := rng.Intn(space)
		if seen[i] {
			continue
		}
		seen[i] = true
		w := types.WriteEntry{Key: types.Key(types.HashBytes([]byte{byte(i), byte(i >> 8), byte(i >> 16)})), Value: make([]byte, 8)}
		rng.Read(w.Value)
		writes = append(writes, w)
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].Key.Less(writes[j].Key) })
	return writes
}

// TestBatchWALBytesMatchReference pins "same nodes, same order, same
// bytes": on a durable store, epoch-shaped commits through Update — keys
// under all sixteen nibbles, batches on both sides of the fan-out
// threshold — leave the write-ahead log byte-identical to the reference's
// at every width.
func TestBatchWALBytesMatchReference(t *testing.T) {
	for _, width := range oracleWidths {
		if err := walBytesMatchReference(t, width, (*Trie).Commit); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
	}
}

// walBytesMatchReference runs the comparison at one width, committing the
// trie under test through commit.
func walBytesMatchReference(t *testing.T, width int, commit func(*Trie) (types.Hash, error)) error {
	open := func() (*kvstore.LSM, string) {
		dir := t.TempDir()
		s, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{MemtableBytes: 1 << 30, CompactAt: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, filepath.Join(dir, "wal.log")
	}
	store, wal := open()
	refStore, refWAL := open()
	tr, ref := New(EmptyRoot, store), newRefTrie(EmptyRoot, refStore)
	tr.SetWorkers(width)
	rng := rand.New(rand.NewSource(3))
	for i, size := range []int{2000, 100, 100, 1, 300} {
		writes := stateBatch(rng, size, 3000)
		if err := tr.Update(writes); err != nil {
			return err
		}
		for _, w := range writes {
			if err := ref.Put(w.Key[:], w.Value); err != nil {
				return err
			}
		}
		root, err := commit(tr)
		if err != nil {
			return err
		}
		if refRoot, err := ref.Commit(); err != nil || refRoot != root {
			return fmt.Errorf("commit %d: root %s, reference %s (%v)", i, root.Short(), refRoot.Short(), err)
		}
		got, err := os.ReadFile(wal)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(refWAL)
		if err != nil {
			return err
		}
		if len(got) == 0 || !bytes.Equal(got, want) {
			return fmt.Errorf("commit %d: WAL is %d bytes, reference %d, or they differ", i, len(got), len(want))
		}
	}
	return nil
}

func TestUpdateRejectsUnsortedBatch(t *testing.T) {
	tr := newTestTrie()
	writes := stateBatch(rand.New(rand.NewSource(1)), 3, 100)
	writes[0], writes[2] = writes[2], writes[0]
	if err := tr.Update(writes); err == nil {
		t.Fatal("unsorted batch accepted")
	}
	if tr.RootHash() != EmptyRoot {
		t.Fatal("a refused batch changed the trie")
	}
}

// failingStore refuses Apply while fail is set.
type failingStore struct {
	kvstore.Store
	fail bool
}

func (s *failingStore) Apply(b *kvstore.Batch) error {
	if s.fail {
		return errors.New("injected apply failure")
	}
	return s.Store.Apply(b)
}

// TestFailedCommitRestoresCommittedRoot: a refused flush leaves the trie
// exactly where the last successful Commit left it, and a retry of the
// same update reaches the root a trie that never failed reaches.
func TestFailedCommitRestoresCommittedRoot(t *testing.T) {
	store := &failingStore{Store: kvstore.NewMemory()}
	tr, twin := New(EmptyRoot, store), newTestTrie()
	rng := rand.New(rand.NewSource(9))
	genesis, epoch := stateBatch(rng, 500, 600), stateBatch(rng, 120, 600)
	for _, x := range []*Trie{tr, twin} {
		if err := x.Update(genesis); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.RootHash()

	store.fail = true
	if err := tr.Update(epoch); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Commit(); err == nil {
		t.Fatal("commit over a failing store succeeded")
	}
	if got := tr.RootHash(); got != before {
		t.Fatalf("root after a failed commit %s, want the committed %s", got.Short(), before.Short())
	}
	for _, w := range epoch {
		got, _, err := tr.Get(w.Key[:])
		want, _, _ := twin.Get(w.Key[:])
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %s reads %x after a failed commit, committed value is %x (%v)", w.Key, got, want, err)
		}
	}

	store.fail = false
	for _, x := range []*Trie{tr, twin} {
		if err := x.Update(epoch); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := twin.Commit(); got != want {
		t.Fatalf("retried commit reaches %s, the never-failed twin %s", got.Short(), want.Short())
	}
	// Everything the retry's root references must be in the store.
	reopened := New(got, store)
	if err := reopened.Iterate(func(k, v []byte) bool { return true }); err != nil {
		t.Fatalf("reopen after retry: %v", err)
	}
}
