package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

func keyN(n uint64) types.Key { return types.KeyFromUint64(n) }

func TestOpenEmpty(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if db.Root() != mpt.EmptyRoot {
		t.Fatal("fresh db root not empty")
	}
	v, err := db.Get(keyN(1))
	if err != nil || v != nil {
		t.Fatalf("get on empty = %q, %v", v, err)
	}
}

func TestCommitAndRead(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	root, err := db.Commit([]types.WriteEntry{
		{Key: keyN(1), Value: []byte("a")},
		{Key: keyN(2), Value: []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if root == mpt.EmptyRoot || root != db.Root() {
		t.Fatal("root not updated")
	}
	v, err := db.Get(keyN(1))
	if err != nil || string(v) != "a" {
		t.Fatalf("get = %q, %v", v, err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()

	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("new")}}); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the old value; head sees the new one.
	v, err := snap.Get(keyN(1))
	if err != nil || string(v) != "old" {
		t.Fatalf("snapshot read = %q, %v", v, err)
	}
	head, _ := db.Get(keyN(1))
	if string(head) != "new" {
		t.Fatalf("head read = %q", head)
	}
	if snap.Root() == db.Root() {
		t.Fatal("roots must differ")
	}
}

func TestSnapshotMissingKeyIsNil(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	snap := db.Snapshot()
	v, err := snap.Get(keyN(42))
	if err != nil || v != nil {
		t.Fatalf("missing = %q, %v", v, err)
	}
	// Cached nil must stay nil.
	v, err = snap.Get(keyN(42))
	if err != nil || v != nil {
		t.Fatalf("cached missing = %q, %v", v, err)
	}
}

func TestSnapshotConcurrentReads(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	var writes []types.WriteEntry
	for i := uint64(0); i < 200; i++ {
		writes = append(writes, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, err := db.Commit(writes); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 200; i++ {
				v, err := snap.Get(keyN(i))
				if err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("key %d = %q, %v", i, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRootsDeterministicAcrossStores(t *testing.T) {
	// Two independent databases applying the same writes must converge to
	// the same root — the cross-node state agreement the validation phase
	// checks (§III-B).
	writes := []types.WriteEntry{
		{Key: keyN(3), Value: []byte("x")},
		{Key: keyN(1), Value: []byte("y")},
		{Key: keyN(2), Value: []byte("z")},
	}
	db1 := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	db2 := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	r1, err := db1.Commit(writes)
	if err != nil {
		t.Fatal(err)
	}
	// Different grouping of the same writes.
	if _, err := db2.Commit(writes[:1]); err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Commit(writes[1:])
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("roots diverge: %s vs %s", r1, r2)
	}
}

func TestReopenFromPersistedRoot(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.OpenLSM(dir, kvstore.DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := Open(store, mpt.EmptyRoot)
	root, err := db.Commit([]types.WriteEntry{{Key: keyN(7), Value: []byte("persisted")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := kvstore.OpenLSM(dir, kvstore.DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2 := Open(store2, root)
	v, err := db2.Get(keyN(7))
	if err != nil || string(v) != "persisted" {
		t.Fatalf("reopened get = %q, %v", v, err)
	}
}

func TestIterate(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	want := map[types.Key]string{}
	var writes []types.WriteEntry
	for i := uint64(0); i < 20; i++ {
		k := keyN(i)
		want[k] = fmt.Sprintf("v%d", i)
		writes = append(writes, types.WriteEntry{Key: k, Value: []byte(want[k])})
	}
	if _, err := db.Commit(writes); err != nil {
		t.Fatal(err)
	}
	got := map[types.Key]string{}
	var prev types.Key
	first := true
	err := db.Iterate(func(k types.Key, v []byte) bool {
		if !first && !prev.Less(k) {
			t.Fatalf("iteration out of order")
		}
		prev, first = k, false
		got[k] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: %q != %q", k, got[k], v)
		}
	}
}

func TestCommitEmptyWriteSet(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	r1, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("empty commit changed the root")
	}
}

func TestDeleteViaEmptyValue(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	root, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: nil}})
	if err != nil {
		t.Fatal(err)
	}
	if root != mpt.EmptyRoot {
		t.Fatal("deleting the only key must restore the empty root")
	}
	v, err := db.Get(keyN(1))
	if err != nil || v != nil {
		t.Fatalf("deleted key = %q", v)
	}
	if !bytes.Equal(nil, v) {
		t.Fatal("deleted value not nil")
	}
}

// flakyStore refuses the next `failures` Apply calls.
type flakyStore struct {
	kvstore.Store
	failures int
}

func (s *flakyStore) Apply(b *kvstore.Batch) error {
	if s.failures > 0 {
		s.failures--
		return errors.New("injected apply failure")
	}
	return s.Store.Apply(b)
}

// TestFailedFlushLeavesNoPhantomWrites: when the store refuses an epoch's
// flush, nothing of the epoch is visible — not through Root, not through
// Get (the MVCC loader reads through it), not through a view opened after
// the failure — and the retried commit reaches the root a database that
// never failed reaches. The per-key trie path used to keep the refused
// writes in the head trie while the root and the versions rolled back. The
// epoch is large enough for the trie to fan it out, so at widths above one
// the refused flush is a merge of several workers' queues.
func TestFailedFlushLeavesNoPhantomWrites(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { failedFlushLeavesNoPhantomWrites(t, workers, false) })
	}
}

// failedFlushLeavesNoPhantomWrites is TestFailedFlushLeavesNoPhantomWrites,
// with the epoch staged ahead of the refused commit when staged is set.
func failedFlushLeavesNoPhantomWrites(t *testing.T, workers int, staged bool) {
	store := &flakyStore{Store: kvstore.NewMemory()}
	db, twin := Open(store, mpt.EmptyRoot), Open(kvstore.NewMemory(), mpt.EmptyRoot)
	var genesis, epoch []types.WriteEntry
	for i := uint64(0); i < 300; i++ {
		genesis = append(genesis, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("old-%d", i))})
	}
	for i := uint64(250); i < 450; i++ { // overwrites and new keys
		epoch = append(epoch, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("new-%d", i))})
	}
	epoch = append(epoch, types.WriteEntry{Key: keyN(7)}) // and a delete
	for _, d := range []*StateDB{db, twin} {
		if _, err := d.Commit(genesis); err != nil {
			t.Fatal(err)
		}
		d.View() // commits go through the MVCC protocol
	}
	root := db.Root()

	if staged {
		if st := db.Stage(db.View(), epoch, workers, nil); !st.Staged || st.Workers != workers {
			t.Fatalf("staging the epoch: %+v, want it staged %d wide", st, workers)
		}
	}
	store.failures = 1
	if _, fan, err := db.CommitWide(epoch, workers); err == nil {
		t.Fatal("commit over a failing store succeeded")
	} else if !staged && fan.Workers != workers {
		t.Fatalf("the refused commit ran %d wide, want %d", fan.Workers, workers)
	}
	if db.Root() != root {
		t.Fatalf("root moved to %s on a failed commit", db.Root().Short())
	}
	view := db.View()
	for _, w := range epoch {
		want, _ := twin.Get(w.Key)
		if got, err := db.Get(w.Key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q, %v after a failed commit; committed value %q", w.Key, got, err, want)
		}
		if got, err := view.Get(w.Key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("fresh view reads %q, %v for %s after a failed commit; committed value %q", got, err, w.Key, want)
		}
	}

	// The refusal rolled a staged epoch back: the retry does the whole seal.
	got, st, err := db.PublishAndSeal(epoch, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Staged {
		t.Fatal("the retry adopted a staged batch the refused flush should have rolled back")
	}
	want, _, err := twin.CommitWide(epoch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || db.Root() != want {
		t.Fatalf("retried commit reaches %s, the never-failed twin %s", got.Short(), want.Short())
	}
	if v, err := db.View().Get(keyN(300)); err != nil || string(v) != "new-300" {
		t.Fatalf("view after retry = %q, %v", v, err)
	}
	// Everything the new root references made it into the store.
	reopened := Open(store, got)
	n := 0
	if err := reopened.Iterate(func(types.Key, []byte) bool { n++; return true }); err != nil || n != 449 {
		t.Fatalf("reopened state holds %d cells, %v; want 449", n, err)
	}
}

// TestPublishAndSealBetweenTheHalves: the view PublishAndSeal hands out
// reads the epoch's writes before the trie has them, a reader started on it
// whose key is cold reads the value all live generations share, and a
// refusal from between the halves unwinds the publication — root, Get and
// fresh views where they were, the version cache sound once the reader has
// been waited for — after which the retry reaches a never-refused twin's root.
func TestPublishAndSealBetweenTheHalves(t *testing.T) {
	db, twin := Open(kvstore.NewMemory(), mpt.EmptyRoot), Open(kvstore.NewMemory(), mpt.EmptyRoot)
	var genesis, epoch []types.WriteEntry
	for i := uint64(0); i < 300; i++ {
		genesis = append(genesis, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("old-%d", i))})
	}
	for i := uint64(250); i < 450; i++ {
		epoch = append(epoch, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("new-%d", i))})
	}
	for _, d := range []*StateDB{db, twin} {
		if _, err := d.Commit(genesis); err != nil {
			t.Fatal(err)
		}
	}
	root, gen := db.Root(), db.View().Gen()

	// between starts a reader on the published view: a written key (warm by
	// construction) on the spot, a cold unwritten one from a goroutine that
	// may load it beside the seal.
	type read struct {
		val []byte
		err error
	}
	var cold chan read
	refuse := errors.New("refused between publish and seal")
	between := func(verdict error, coldKey uint64) func(*mvcc.View) error {
		return func(v *mvcc.View) error {
			if v.Gen() != gen+1 {
				t.Errorf("published view at generation %d, want %d", v.Gen(), gen+1)
			}
			if got, err := v.Get(keyN(300)); err != nil || string(got) != "new-300" {
				t.Errorf("published view reads %q, %v for a key the epoch wrote", got, err)
			}
			cold = make(chan read, 1)
			go func() {
				val, err := v.Get(keyN(coldKey))
				cold <- read{val, err}
			}()
			return verdict
		}
	}

	if _, _, err := db.PublishAndSeal(epoch, 2, between(refuse, 7)); !errors.Is(err, refuse) {
		t.Fatalf("refused commit returned %v", err)
	}
	if got := <-cold; got.err != nil || string(got.val) != "old-7" {
		t.Fatalf("cold reader started before the refusal read %q, %v", got.val, got.err)
	}
	if db.Root() != root || db.View().Gen() != gen {
		t.Fatalf("the refusal left root %s at generation %d, was %s at %d", db.Root().Short(), db.View().Gen(), root.Short(), gen)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, w := range epoch {
		want, _ := twin.Get(w.Key)
		if got, err := db.View().Get(w.Key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("fresh view reads %q, %v for %s after the refusal; committed value %q", got, err, w.Key, want)
		}
	}

	got, _, err := db.PublishAndSeal(epoch, 2, between(nil, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r := <-cold; r.err != nil || string(r.val) != "old-8" {
		t.Fatalf("cold reader started before the seal read %q, %v", r.val, r.err)
	}
	want, err := twin.Commit(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || db.Root() != want {
		t.Fatalf("retried commit reaches %s, the never-refused twin %s", got.Short(), want.Short())
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
