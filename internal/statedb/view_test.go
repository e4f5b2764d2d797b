package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

func TestViewIsolationAcrossCommit(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	view := db.View()

	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("new")}, {Key: keyN(2), Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}

	// The old view keeps resolving pre-commit values — including for
	// key 2, which it never touched before the commit (the eager base
	// load in CommitEpoch covers cold keys).
	if v, err := view.Get(keyN(1)); err != nil || string(v) != "old" {
		t.Fatalf("view read = %q, %v; want old", v, err)
	}
	if v, err := view.Get(keyN(2)); err != nil || v != nil {
		t.Fatalf("view read of cold key = %q, %v; want nil", v, err)
	}
	head := db.View()
	if v, err := head.Get(keyN(1)); err != nil || string(v) != "new" {
		t.Fatalf("head view read = %q, %v; want new", v, err)
	}
	if v, err := head.Get(keyN(2)); err != nil || string(v) != "x" {
		t.Fatalf("head view read = %q, %v; want x", v, err)
	}
}

// TestViewMatchesSnapshot drives the two read paths over the same commit
// sequence and asserts value-for-value agreement at every step.
func TestViewMatchesSnapshot(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	for round := uint64(0); round < 8; round++ {
		var writes []types.WriteEntry
		for i := uint64(0); i < 16; i++ {
			if (round+i)%3 == 0 {
				writes = append(writes, types.WriteEntry{
					Key:   keyN(i),
					Value: []byte(fmt.Sprintf("r%d-k%d", round, i)),
				})
			}
		}
		if _, err := db.Commit(writes); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		view := db.View()
		for i := uint64(0); i < 20; i++ {
			sv, err1 := snap.Get(keyN(i))
			vv, err2 := view.Get(keyN(i))
			if err1 != nil || err2 != nil {
				t.Fatalf("round %d key %d: snap err %v, view err %v", round, i, err1, err2)
			}
			if !bytes.Equal(sv, vv) {
				t.Fatalf("round %d key %d: snapshot %q != view %q", round, i, sv, vv)
			}
		}
	}
}

func TestAdvanceWatermarkInvalidatesOldViews(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	old := db.View()
	if _, err := old.Get(keyN(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("v2")}}); err != nil {
		t.Fatal(err)
	}
	if folded := db.AdvanceWatermark(); folded == 0 {
		t.Fatal("expected the old version to fold")
	}
	if _, err := old.Get(keyN(1)); !errors.Is(err, mvcc.ErrBelowWatermark) {
		t.Fatalf("stale view err = %v, want ErrBelowWatermark", err)
	}
	if v, err := db.View().Get(keyN(1)); err != nil || string(v) != "v2" {
		t.Fatalf("head view after gc = %q, %v", v, err)
	}
}

func TestPrefetchWarmsView(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(7), Value: []byte("warm")}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Prefetch(keyN(7)); err != nil {
		t.Fatal(err)
	}
	if v, err := db.View().Get(keyN(7)); err != nil || string(v) != "warm" {
		t.Fatalf("view read = %q, %v", v, err)
	}
	stats, ok := db.MVCCStats()
	if !ok {
		t.Fatal("stats missing after prefetch")
	}
	if stats.Prefetched != 1 || stats.PrefetchHits != 1 || stats.Misses != 0 {
		t.Fatalf("stats = %+v; want 1 prefetched, 1 hit, 0 misses", stats)
	}
}

func TestMVCCStatsAbsentWithoutViews(t *testing.T) {
	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit([]types.WriteEntry{{Key: keyN(1), Value: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.MVCCStats(); ok {
		t.Fatal("snapshot-only use must not create the mvcc store")
	}
	if db.AdvanceWatermark() != 0 {
		t.Fatal("watermark advance without a store must be a no-op")
	}
}

// TestFannedOutCommitUnderReaders runs epoch-sized commits, fanned out
// across workers, under View.Get, Prefetch and Root readers (run with
// -race). Every commit rewrites every cell with its round number, so the
// cells a view reads must all carry one round, between the last commit
// finished before the view was taken and the last one started since; Root
// must be a root the sequential twin reached.
func TestFannedOutCommitUnderReaders(t *testing.T) {
	const cells, rounds, workers = 600, 12, 4
	round := func(r int) []types.WriteEntry {
		writes := make([]types.WriteEntry, cells)
		for i := range writes {
			writes[i] = types.WriteEntry{Key: keyN(uint64(i)), Value: []byte{byte(r)}}
		}
		return writes
	}
	db, twin := Open(kvstore.NewMemory(), mpt.EmptyRoot), Open(kvstore.NewMemory(), mpt.EmptyRoot)
	roots := map[types.Hash]bool{}
	for r := 0; r <= rounds; r++ {
		root, _, err := twin.CommitWide(round(r), 1)
		if err != nil {
			t.Fatal(err)
		}
		roots[root] = true
	}
	if _, err := db.Commit(round(0)); err != nil {
		t.Fatal(err)
	}
	db.View()

	var started, finished atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(fn func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(18))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(rng); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		reader(func(rng *rand.Rand) error {
			lo := finished.Load()
			view := db.View()
			var seen []byte
			for j := 0; j < 8; j++ {
				v, err := view.Get(keyN(uint64(rng.Intn(cells))))
				if err != nil || len(v) != 1 {
					return fmt.Errorf("view read %x, %v", v, err)
				}
				seen = append(seen, v[0])
			}
			hi := started.Load()
			if slices.Min(seen) != slices.Max(seen) || int64(seen[0]) < lo || int64(seen[0]) > hi {
				return fmt.Errorf("one view read rounds %v with commits %d..%d possible", seen, lo, hi)
			}
			return nil
		})
	}
	reader(func(rng *rand.Rand) error { return db.Prefetch(keyN(uint64(rng.Intn(cells)))) })
	reader(func(*rand.Rand) error {
		if root := db.Root(); !roots[root] {
			return fmt.Errorf("root %s is no round's root", root.Short())
		}
		return nil
	})

	for r := 1; r <= rounds; r++ {
		started.Store(int64(r))
		_, fan, err := db.CommitWide(round(r), workers)
		if err != nil || fan.Workers != workers {
			t.Fatalf("round %d: commit ran %d wide, %v", r, fan.Workers, err)
		}
		finished.Store(int64(r))
	}
	close(stop)
	wg.Wait()
	if db.Root() != twin.Root() {
		t.Fatalf("fanned-out commits reach %s, the sequential twin %s", db.Root().Short(), twin.Root().Short())
	}
}
