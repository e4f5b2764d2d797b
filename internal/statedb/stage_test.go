package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

// stagedPair opens a database and a twin over the same 300-cell genesis,
// with the version cache on (commits go through the MVCC protocol), and
// returns an epoch for them: overwrites, new keys and a delete, the delete
// out of key order.
func stagedPair(t *testing.T) (db, twin *StateDB, epoch []types.WriteEntry) {
	t.Helper()
	db, twin = Open(kvstore.NewMemory(), mpt.EmptyRoot), Open(kvstore.NewMemory(), mpt.EmptyRoot)
	var genesis []types.WriteEntry
	for i := uint64(0); i < 300; i++ {
		genesis = append(genesis, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("old-%d", i))})
	}
	for i := uint64(250); i < 450; i++ {
		epoch = append(epoch, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("new-%d", i))})
	}
	epoch = append(epoch, types.WriteEntry{Key: keyN(7)})
	for _, d := range []*StateDB{db, twin} {
		if _, err := d.Commit(genesis); err != nil {
			t.Fatal(err)
		}
		d.View()
	}
	return db, twin, epoch
}

// cells reads a database's whole state through Iterate.
func cells(t *testing.T, db *StateDB) map[types.Key]string {
	t.Helper()
	out := make(map[types.Key]string)
	if err := db.Iterate(func(k types.Key, v []byte) bool { out[k] = string(v); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameState fails unless db reads what twin reads, key by key over keys,
// through Get, a fresh view and a snapshot, and cell by cell through
// Iterate.
func sameState(t *testing.T, db, twin *StateDB, keys []types.WriteEntry) {
	t.Helper()
	if db.Root() != twin.Root() {
		t.Fatalf("root %s, twin %s", db.Root().Short(), twin.Root().Short())
	}
	readers := []Reader{db, db.View(), db.Snapshot()}
	for _, w := range keys {
		want, _ := twin.Get(w.Key)
		for _, r := range readers {
			if got, err := r.Get(w.Key); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T reads %q, %v for %s; twin %q", r, got, err, w.Key, want)
			}
		}
	}
	got, want := cells(t, db), cells(t, twin)
	if len(got) != len(want) {
		t.Fatalf("Iterate walks %d cells, twin %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Iterate reads %q for %s, twin %q", got[k], k, v)
		}
	}
}

// TestPublishAndSealStagedIsInvisible: a staged batch is in the trie's
// working tree and nowhere else — Root, Get, views, snapshots and Iterate
// all read the committed state.
func TestPublishAndSealStagedIsInvisible(t *testing.T) {
	db, twin, epoch := stagedPair(t)
	if st := db.Stage(db.View(), epoch, 2, nil); !st.Staged {
		t.Fatal("the epoch was not staged")
	}
	sameState(t, db, twin, epoch)
}

// TestPublishAndSealStagedMatchesCommit: staging a batch and then committing
// it reaches the root, the state and the journal of a plain commit of the
// batch, at every width, and the commit reports that it only flushed.
func TestPublishAndSealStagedMatchesCommit(t *testing.T) {
	journal.Reset()
	journal.Enable()
	defer journal.Disable()
	for _, workers := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, twin, epoch := stagedPair(t)
			jd, jt := journal.For(fmt.Sprintf("staged-%d", workers)), journal.For(fmt.Sprintf("plain-%d", workers))
			db.SetJournal(jd)
			twin.SetJournal(jt)
			if st := db.Stage(db.View(), epoch, workers, nil); !st.Staged {
				t.Fatal("the epoch was not staged")
			}
			got, st, err := db.PublishAndSeal(epoch, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Commit(epoch)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Staged || got != want {
				t.Fatalf("staged commit: root %s, staged %v; plain commit %s", got.Short(), st.Staged, want.Short())
			}
			sameState(t, db, twin, epoch)
			if d := journal.Diff(jd.Snapshot(), jt.Snapshot()); d != nil {
				t.Fatalf("staging shows in the journal:\n%s", d)
			}
		})
	}
}

// TestPublishAndSealStagedOtherBatchRollsBack: a commit of a batch other
// than the staged one rolls the staged batch back first — none of its
// writes reach the root — and a commit after Unstage does the whole seal.
func TestPublishAndSealStagedOtherBatchRollsBack(t *testing.T) {
	db, twin, epoch := stagedPair(t)
	other := []types.WriteEntry{
		{Key: keyN(260), Value: []byte("other-260")}, // a key the staged batch writes too
		{Key: keyN(900), Value: []byte("other-900")},
	}
	for _, batch := range [][]types.WriteEntry{other, epoch} {
		if st := db.Stage(db.View(), epoch, 2, nil); !st.Staged {
			t.Fatal("the epoch was not staged")
		}
		if len(batch) == len(epoch) {
			db.Unstage()
		}
		got, st, err := db.PublishAndSeal(batch, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Commit(batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Staged || got != want {
			t.Fatalf("commit over a batch it did not stage: root %s, staged %v; twin %s", got.Short(), st.Staged, want.Short())
		}
		sameState(t, db, twin, epoch)
	}
}

// TestPublishAndSealStagedRefusedSeal: a commit refused between publish and
// seal rolls back the staged batch it would have adopted. The retry commits
// part of the batch, so a trie still holding all of it would show in the
// root (the same batch again would re-apply over it and hide it).
func TestPublishAndSealStagedRefusedSeal(t *testing.T) {
	db, twin, epoch := stagedPair(t)
	if st := db.Stage(db.View(), epoch, 2, nil); !st.Staged {
		t.Fatal("the epoch was not staged")
	}
	refuse := errors.New("refused between publish and seal")
	if _, _, err := db.PublishAndSeal(epoch, 2, func(*mvcc.View) error { return refuse }); !errors.Is(err, refuse) {
		t.Fatalf("refused commit returned %v", err)
	}
	sameState(t, db, twin, epoch)
	part := epoch[:50]
	got, st, err := db.PublishAndSeal(part, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Commit(part)
	if err != nil {
		t.Fatal(err)
	}
	if st.Staged || got != want {
		t.Fatalf("retry after the refusal: root %s, staged %v; twin %s", got.Short(), st.Staged, want.Short())
	}
	sameState(t, db, twin, epoch)
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishAndSealStagedFailedFlush is TestFailedFlushLeavesNoPhantomWrites
// over a staged epoch: the refused flush rolls the staged batch back with
// the rest.
func TestPublishAndSealStagedFailedFlush(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { failedFlushLeavesNoPhantomWrites(t, workers, true) })
	}
}

// TestPublishAndSealStagedDeclines: Stage stages nothing for an empty batch,
// once its stop flag is set, or when the head generation is no longer the
// one the batch was computed at; the commit that follows does the whole
// seal.
func TestPublishAndSealStagedDeclines(t *testing.T) {
	db, twin, epoch := stagedPair(t)
	var stop atomic.Bool
	stop.Store(true)
	stale := db.View()
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("moved")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("moved")}}); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]SealStats{
		"empty batch": db.Stage(db.View(), nil, 2, nil),
		"stopped":     db.Stage(db.View(), epoch, 2, &stop),
		"stale view":  db.Stage(stale, epoch, 2, nil),
	} {
		if st.Staged {
			t.Fatalf("%s: staged", name)
		}
	}
	got, st, err := db.PublishAndSeal(epoch, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Commit(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if st.Staged || got != want {
		t.Fatalf("commit after declined stages: root %s, staged %v; twin %s", got.Short(), st.Staged, want.Short())
	}
}

// TestPublishAndSealStagedReadersDoNotWait: staging holds the trie's lock
// alone, so Root, View, Get, Snapshot and MVCCStats return while a stage
// is in progress (the lock is held here as a stage would hold it), and
// readers of the committed state run beside a real stage — under -race,
// the witness that no update writes what a committed read reads.
func TestPublishAndSealStagedReadersDoNotWait(t *testing.T) {
	db, twin, epoch := stagedPair(t)
	db.trieMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		db.Root()
		db.View()
		db.Snapshot()
		db.MVCCStats()
		if _, err := db.Get(keyN(1)); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a reader of the committed state waits for the trie's lock")
	}
	db.trieMu.Unlock()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i = (i + 1) % 450 {
				select {
				case <-stop:
					return
				default:
				}
				want, _ := twin.Get(keyN(i))
				if got, err := db.Get(keyN(i)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("Get(%d) beside a stage = %q, %v; committed %q", i, got, err, want)
					return
				}
			}
		}()
	}
	st := db.Stage(db.View(), epoch, 4, nil)
	close(stop)
	wg.Wait()
	if !st.Staged {
		t.Fatal("the epoch was not staged")
	}
}
