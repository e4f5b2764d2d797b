package mpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/types"
)

func newTestTrie() *Trie {
	return New(EmptyRoot, kvstore.NewMemory())
}

func TestEmptyTrie(t *testing.T) {
	tr := newTestTrie()
	if tr.RootHash() != EmptyRoot {
		t.Fatal("empty trie root not EmptyRoot")
	}
	if _, found, err := tr.Get([]byte("absent")); err != nil || found {
		t.Fatalf("get on empty: %v %v", found, err)
	}
	if err := tr.Delete([]byte("absent")); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetSingle(t *testing.T) {
	tr := newTestTrie()
	if err := tr.Put([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tr.Get([]byte("key"))
	if err != nil || !found || string(v) != "value" {
		t.Fatalf("get = %q,%v,%v", v, found, err)
	}
	if _, found, _ := tr.Get([]byte("ke")); found {
		t.Fatal("prefix key should be absent")
	}
	if _, found, _ := tr.Get([]byte("keyx")); found {
		t.Fatal("extension key should be absent")
	}
}

func TestPutOverwrite(t *testing.T) {
	tr := newTestTrie()
	if err := tr.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	r1 := tr.RootHash()
	if err := tr.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tr.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if tr.RootHash() == r1 {
		t.Fatal("root unchanged after overwrite")
	}
	if err := tr.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if tr.RootHash() != r1 {
		t.Fatal("root not restored after writing original value back")
	}
}

func TestPrefixKeys(t *testing.T) {
	// Keys where one is a prefix of another exercise branch value slots.
	tr := newTestTrie()
	pairs := map[string]string{
		"":      "empty-key",
		"a":     "1",
		"ab":    "2",
		"abc":   "3",
		"abd":   "4",
		"b":     "5",
		"\x00":  "zero",
		"\x00a": "zero-a",
	}
	for k, v := range pairs {
		if err := tr.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	for k, v := range pairs {
		got, found, err := tr.Get([]byte(k))
		if err != nil || !found || string(got) != v {
			t.Fatalf("get %q = %q,%v,%v want %q", k, got, found, err, v)
		}
	}
}

func TestDeleteCollapses(t *testing.T) {
	tr := newTestTrie()
	keys := []string{"aaaa", "aaab", "aabb", "bbbb", "a"}
	for _, k := range keys {
		if err := tr.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete in an order that forces branch collapses at several levels.
	for i, k := range []string{"aaab", "a", "aabb", "bbbb"} {
		if err := tr.Delete([]byte(k)); err != nil {
			t.Fatalf("delete %q: %v", k, err)
		}
		if _, found, _ := tr.Get([]byte(k)); found {
			t.Fatalf("%q survived deletion", k)
		}
		// Remaining keys still readable.
		for _, rest := range keys {
			deleted := false
			for _, d := range []string{"aaab", "a", "aabb", "bbbb"}[:i+1] {
				if rest == d {
					deleted = true
				}
			}
			if deleted {
				continue
			}
			if _, found, err := tr.Get([]byte(rest)); err != nil || !found {
				t.Fatalf("after deleting %q, %q unreadable: %v", k, rest, err)
			}
		}
	}
	// Only "aaaa" remains; deleting it empties the trie.
	if err := tr.Delete([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if tr.RootHash() != EmptyRoot {
		t.Fatal("trie not empty after deleting every key")
	}
}

func TestEmptyValueDeletes(t *testing.T) {
	tr := newTestTrie()
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tr.Get([]byte("k")); found {
		t.Fatal("empty-value put did not delete")
	}
	if tr.RootHash() != EmptyRoot {
		t.Fatal("root not empty")
	}
}

// TestHistoryIndependence is the defining MPT property the state layer
// relies on (DESIGN.md invariant 6): any insertion order (with interleaved
// deletions) of the same final content yields the same root.
func TestHistoryIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		content := make(map[string]string)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%x", rng.Intn(64))
			content[k] = fmt.Sprintf("v%d", rng.Intn(1000))
		}

		buildRoot := func(seed int64) types.Hash {
			order := make([]string, 0, len(content))
			for k := range content {
				order = append(order, k)
			}
			sort.Strings(order)
			r := rand.New(rand.NewSource(seed))
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			tr := newTestTrie()
			// Insert some junk first, then delete it, to exercise
			// non-monotone histories.
			junk := fmt.Sprintf("junk%d", seed)
			if err := tr.Put([]byte(junk), []byte("x")); err != nil {
				t.Fatal(err)
			}
			for _, k := range order {
				if err := tr.Put([]byte(k), []byte(content[k])); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Delete([]byte(junk)); err != nil {
				t.Fatal(err)
			}
			return tr.RootHash()
		}
		r1, r2, r3 := buildRoot(1), buildRoot(2), buildRoot(3)
		if r1 != r2 || r2 != r3 {
			t.Fatalf("trial %d: roots differ across insertion orders: %s %s %s", trial, r1, r2, r3)
		}

		// The same content as one batch, and as two batches with a commit
		// after each, reaches the root the keys reach one at a time.
		var batch []entry
		for k, v := range content {
			batch = append(batch, entry{key: []byte(k), value: []byte(v)})
		}
		sort.Slice(batch, func(i, j int) bool { return bytes.Compare(batch[i].key, batch[j].key) < 0 })
		odd, even := []entry{}, []entry{}
		for i, e := range batch {
			if i%2 == 0 {
				even = append(even, e)
			} else {
				odd = append(odd, e)
			}
		}
		oneBatch, twoCommits := newTestTrie(), newTestTrie()
		if err := oneBatch.update(batch); err != nil {
			t.Fatal(err)
		}
		for _, half := range [][]entry{odd, even} {
			if err := twoCommits.update(half); err != nil {
				t.Fatal(err)
			}
			if _, err := twoCommits.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if b1, b2 := oneBatch.RootHash(), twoCommits.RootHash(); b1 != r1 || b2 != r1 {
			t.Fatalf("trial %d: one batch %s, two commits %s, one key at a time %s", trial, b1, b2, r1)
		}
	}
}

// TestRootChangesWithContent: different content must (overwhelmingly)
// produce different roots.
func TestRootChangesWithContent(t *testing.T) {
	tr := newTestTrie()
	roots := make(map[types.Hash]bool)
	for i := 0; i < 100; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key%d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		root := tr.RootHash()
		if roots[root] {
			t.Fatalf("root repeated at insert %d", i)
		}
		roots[root] = true
	}
}

func TestCommitAndReload(t *testing.T) {
	store := kvstore.NewMemory()
	tr := New(EmptyRoot, store)
	content := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%d", i)
		content[k] = v
		if err := tr.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh trie over the same store must see everything.
	tr2 := New(root, store)
	for k, v := range content {
		got, found, err := tr2.Get([]byte(k))
		if err != nil || !found || string(got) != v {
			t.Fatalf("reloaded get %q = %q,%v,%v", k, got, found, err)
		}
	}
	// And mutating the reloaded trie must not disturb the committed root.
	if err := tr2.Put([]byte("new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	tr3 := New(root, store)
	if _, found, _ := tr3.Get([]byte("new")); found {
		t.Fatal("old root sees new write — snapshot isolation broken")
	}
}

// TestGetCommittedAndRollback: GetCommitted reads the last committed root
// whatever has been updated and hashed since, a Commit moves it, and
// Rollback puts the working tree back on it with nothing left pending.
func TestGetCommittedAndRollback(t *testing.T) {
	tr := newTestTrie()
	get := func(read func([]byte) ([]byte, bool, error), key string) string {
		t.Helper()
		v, _, err := read([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		return string(v)
	}
	if err := tr.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if got := get(tr.GetCommitted, "a"); got != "" {
		t.Fatalf("GetCommitted before any Commit = %q", got)
	}
	committed, err := tr.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if err := tr.Put([]byte(key), []byte("2")); err != nil {
			t.Fatal(err)
		}
	}
	staged := tr.RootHash()
	if get(tr.Get, "a") != "2" || get(tr.GetCommitted, "a") != "1" || get(tr.GetCommitted, "b") != "" {
		t.Fatal("GetCommitted reads the updated tree")
	}
	tr.Rollback()
	if tr.RootHash() != committed || get(tr.Get, "a") != "1" || get(tr.Get, "b") != "" {
		t.Fatal("Rollback left the updated tree in place")
	}
	if root, err := tr.Commit(); err != nil || root != committed {
		t.Fatalf("commit after Rollback = %s, %v; want the committed root %s", root.Short(), err, committed.Short())
	}
	if err := tr.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if root, err := tr.Commit(); err != nil || root != staged || get(tr.GetCommitted, "b") != "2" {
		t.Fatalf("commit = %s, %v; want %s and GetCommitted to follow it", root.Short(), err, staged.Short())
	}
}

func TestMissingNodeError(t *testing.T) {
	// A root pointing at a node the store does not contain must error, not
	// silently read empty.
	bogus := types.HashBytes([]byte("nonexistent"))
	tr := New(bogus, kvstore.NewMemory())
	if _, _, err := tr.Get([]byte("k")); err == nil {
		t.Fatal("missing node not reported")
	}
}

func TestIterate(t *testing.T) {
	tr := newTestTrie()
	content := map[string]string{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", (i*37)%100)
		content[k] = fmt.Sprintf("v%d", i)
		if err := tr.Put([]byte(k), []byte(content[k])); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	seen := map[string]string{}
	err := tr.Iterate(func(k, v []byte) bool {
		keys = append(keys, string(k))
		seen[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("iteration not in key order: %v", keys)
	}
	if len(seen) != len(content) {
		t.Fatalf("iterated %d keys, want %d", len(seen), len(content))
	}
	for k, v := range content {
		if seen[k] != v {
			t.Fatalf("key %s: %q != %q", k, seen[k], v)
		}
	}
	// Early stop.
	count := 0
	if err := tr.Iterate(func(k, v []byte) bool { count++; return count < 5 }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestTrieMatchesMapModel runs a random operation stream against the trie
// and a plain map; contents and root-of-content must agree at every step.
func TestTrieMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := newTestTrie()
	model := map[string]string{}
	for op := 0; op < 3000; op++ {
		k := fmt.Sprintf("%x", rng.Intn(128))
		if rng.Intn(4) == 0 {
			delete(model, k)
			if err := tr.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		} else {
			v := fmt.Sprintf("v%d", op)
			model[k] = v
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if op%211 == 0 {
			probe := fmt.Sprintf("%x", rng.Intn(128))
			got, found, err := tr.Get([]byte(probe))
			if err != nil {
				t.Fatal(err)
			}
			want, wantFound := model[probe]
			if found != wantFound || (found && string(got) != want) {
				t.Fatalf("op %d: trie(%q,%v) != model(%q,%v)", op, got, found, want, wantFound)
			}
		}
	}
	// Final: rebuild from scratch in sorted order; roots must match
	// (history independence against the mutation history).
	fresh := newTestTrie()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := fresh.Put([]byte(k), []byte(model[k])); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.RootHash() != tr.RootHash() {
		t.Fatal("root after mutation history != root of fresh build")
	}
}

// TestHexPrefixRoundTripQuick covers the key compaction codec.
func TestHexPrefixRoundTripQuick(t *testing.T) {
	f := func(raw []byte, leaf bool) bool {
		nibbles := make([]byte, len(raw)%33)
		for i := range nibbles {
			nibbles[i] = raw[i] & 0x0f
		}
		enc := hexPrefixEncode(nibbles, leaf)
		back, gotLeaf, err := hexPrefixDecode(enc)
		if err != nil || gotLeaf != leaf {
			return false
		}
		return bytes.Equal(back, nibbles) || (len(back) == 0 && len(nibbles) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	// Leaf.
	leaf := &shortNode{key: []byte{1, 2, 3}, val: valueNode("hello")}
	_, enc := encodeNode(leaf, nil)
	back, err := decodeNode(enc)
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := back.(*shortNode)
	if !ok || !bytes.Equal(bs.key, leaf.key) || string(bs.val.(valueNode)) != "hello" {
		t.Fatalf("leaf round trip: %+v", back)
	}
	// Branch with two children and a value.
	branch := &branchNode{value: []byte("bv")}
	branch.children[3] = leaf
	branch.children[10] = &shortNode{key: []byte{4}, val: valueNode("x")}
	_, enc = encodeNode(branch, nil)
	backB, err := decodeNode(enc)
	if err != nil {
		t.Fatal(err)
	}
	bb, ok := backB.(*branchNode)
	if !ok || string(bb.value) != "bv" || bb.children[3] == nil || bb.children[10] == nil || bb.children[0] != nil {
		t.Fatalf("branch round trip: %+v", backB)
	}
	// Garbage rejects.
	if _, err := decodeNode([]byte{0x01, 0x02}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func BenchmarkTriePut(b *testing.B) {
	tr := newTestTrie()
	var key [32]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		if err := tr.Put(key[:], []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrieRootHash(b *testing.B) {
	tr := newTestTrie()
	var key [32]byte
	for i := 0; i < 10_000; i++ {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		if err := tr.Put(key[:], []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[3] = byte(i)
		if err := tr.Put(key[:], []byte("v2")); err != nil {
			b.Fatal(err)
		}
		tr.RootHash()
	}
}
