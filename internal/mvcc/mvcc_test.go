package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

func key(b byte) types.Key {
	var k types.Key
	k[0] = b
	k[types.KeyLen-1] = b
	return k
}

// backend is a mutable flat map standing in for the trie, with a load
// counter so tests can assert copy-on-read behaviour.
type backend struct {
	mu    sync.Mutex
	m     map[types.Key][]byte
	loads int
}

func newBackend() *backend { return &backend{m: make(map[types.Key][]byte)} }

func (b *backend) load(k types.Key) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	return b.m[k], nil
}

func (b *backend) set(k types.Key, v []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = v
}

// commit drives the full statedb-shaped commit protocol: reserve, append
// versions pre-flush, flush the backend, release.
func commit(t *testing.T, st *Store, b *backend, writes []types.WriteEntry) uint64 {
	t.Helper()
	keys := make([]types.Key, len(writes))
	for i, w := range writes {
		keys[i] = w.Key
	}
	st.ReserveEpoch(keys)
	gen, err := st.CommitEpoch(writes, b.load)
	if err != nil {
		t.Fatalf("CommitEpoch: %v", err)
	}
	for _, w := range writes {
		b.set(w.Key, w.Value)
	}
	st.ReleaseEpoch()
	return gen
}

func TestReadThroughAndCopyOnRead(t *testing.T) {
	b := newBackend()
	b.set(key(1), []byte("v0"))
	st := New(0, b.load)

	v := st.Head()
	for i := 0; i < 3; i++ {
		got, err := v.Get(key(1))
		if err != nil || string(got) != "v0" {
			t.Fatalf("get #%d = %q, %v", i, got, err)
		}
	}
	if b.loads != 1 {
		t.Fatalf("backend loads = %d, want 1 (copy-on-read)", b.loads)
	}
	if got, err := v.Get(key(2)); err != nil || got != nil {
		t.Fatalf("missing key = %q, %v; want nil, nil", got, err)
	}
	s := st.Stats()
	if s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 2/2", s.Hits, s.Misses)
	}
}

func TestVersionVisibilityPerGeneration(t *testing.T) {
	b := newBackend()
	b.set(key(1), []byte("v0"))
	st := New(0, b.load)

	commit(t, st, b, []types.WriteEntry{{Key: key(1), Value: []byte("v1")}})
	commit(t, st, b, []types.WriteEntry{{Key: key(1), Value: []byte("v2")}, {Key: key(2), Value: []byte("w2")}})

	cases := []struct {
		gen  uint64
		k    types.Key
		want string
	}{
		{0, key(1), "v0"},
		{1, key(1), "v1"},
		{2, key(1), "v2"},
		{0, key(2), ""},
		{1, key(2), ""},
		{2, key(2), "w2"},
	}
	for _, c := range cases {
		got, err := st.View(c.gen).Get(c.k)
		if err != nil {
			t.Fatalf("gen %d key %x: %v", c.gen, c.k[0], err)
		}
		if string(got) != c.want {
			t.Fatalf("gen %d key %x = %q, want %q", c.gen, c.k[0], got, c.want)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleBaseLoadDiscarded drives the exact race the package comment's
// rule 2 covers: a reader at the old generation loads from a backend that
// already flushed the new value; the chain (populated by CommitEpoch
// before the flush) must win.
func TestStaleBaseLoadDiscarded(t *testing.T) {
	b := newBackend()
	b.set(key(1), []byte("old"))
	st := New(0, b.load)

	old := st.Head() // pinned at gen 0, key never read yet (cold)
	commit(t, st, b, []types.WriteEntry{{Key: key(1), Value: []byte("new")}})

	// The backend now holds "new"; the old view must still read "old"
	// because CommitEpoch base-loaded the chain pre-flush.
	got, err := old.Get(key(1))
	if err != nil || string(got) != "old" {
		t.Fatalf("old view read = %q, %v; want \"old\"", got, err)
	}
	if got, err := st.Head().Get(key(1)); err != nil || string(got) != "new" {
		t.Fatalf("head view read = %q, %v; want \"new\"", got, err)
	}
}

func TestReservedKeyNotCached(t *testing.T) {
	b := newBackend()
	b.set(key(1), []byte("v0"))
	st := New(0, b.load)

	st.ReserveEpoch([]types.Key{key(1)})
	if got, err := st.Head().Get(key(1)); err != nil || string(got) != "v0" {
		t.Fatalf("reserved read = %q, %v", got, err)
	}
	// The value must not have been cached: a second read loads again.
	if _, err := st.Head().Get(key(1)); err != nil {
		t.Fatal(err)
	}
	if b.loads != 2 {
		t.Fatalf("backend loads = %d, want 2 (reserved keys are not cached)", b.loads)
	}
	st.ReleaseEpoch()
	if _, err := st.Head().Get(key(1)); err != nil {
		t.Fatal(err)
	}
	if b.loads != 3 {
		t.Fatalf("backend loads = %d, want 3", b.loads)
	}
	// Released: now cached.
	if _, err := st.Head().Get(key(1)); err != nil {
		t.Fatal(err)
	}
	if b.loads != 3 {
		t.Fatalf("backend loads = %d, want 3 (cached after release)", b.loads)
	}
}

func TestPrefetch(t *testing.T) {
	b := newBackend()
	b.set(key(1), []byte("v1"))
	b.set(key(2), []byte("v2"))
	st := New(0, b.load)

	if err := st.Prefetch(key(1)); err != nil {
		t.Fatal(err)
	}
	st.ReserveEpoch([]types.Key{key(2)})
	if err := st.Prefetch(key(2)); err != nil {
		t.Fatal(err)
	}
	st.ReleaseEpoch()
	if err := st.Prefetch(key(1)); err != nil { // already warm
		t.Fatal(err)
	}

	s := st.Stats()
	if s.Prefetched != 1 || s.PrefetchSkipped != 2 {
		t.Fatalf("prefetched=%d skipped=%d, want 1/2", s.Prefetched, s.PrefetchSkipped)
	}

	// Reading the prefetched key is a cache hit and counts toward the
	// prefetch hit-rate exactly once.
	if got, err := st.Head().Get(key(1)); err != nil || string(got) != "v1" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if _, err := st.Head().Get(key(1)); err != nil {
		t.Fatal(err)
	}
	s = st.Stats()
	if s.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d, want 1", s.PrefetchHits)
	}
	if s.Misses != 0 {
		t.Fatalf("misses = %d, want 0 (prefetch warmed the key)", s.Misses)
	}
}

func TestWatermarkFoldsChains(t *testing.T) {
	b := newBackend()
	st := New(0, b.load)
	for g := 1; g <= 4; g++ {
		commit(t, st, b, []types.WriteEntry{{Key: key(1), Value: []byte(fmt.Sprintf("v%d", g))}})
	}

	collected := st.SetWatermark(2)
	if collected != 2 {
		t.Fatalf("collected = %d, want 2", collected)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reads inside the live window still see the folded value: gen 2 and
	// gen 2.5 (i.e. a view at 2 before gen 3's write) resolve to base.
	if got, err := st.View(2).Get(key(1)); err != nil || string(got) != "v2" {
		t.Fatalf("view(2) = %q, %v; want v2 via folded base", got, err)
	}
	if got, err := st.View(3).Get(key(1)); err != nil || string(got) != "v3" {
		t.Fatalf("view(3) = %q, %v", got, err)
	}
	// Below the watermark the store refuses.
	if _, err := st.View(1).Get(key(1)); !errors.Is(err, ErrBelowWatermark) {
		t.Fatalf("view(1) err = %v, want ErrBelowWatermark", err)
	}
	// Lowering is a no-op.
	if got := st.SetWatermark(1); got != 0 {
		t.Fatalf("lowering watermark collected %d", got)
	}
	s := st.Stats()
	if s.GCVersions != 2 || s.Versions != 2 {
		t.Fatalf("gc=%d live=%d, want 2/2", s.GCVersions, s.Versions)
	}
}

// TestConcurrentReadersDuringCommit hammers old- and new-generation reads
// while commits and prefetches run; run with -race.
func TestConcurrentReadersDuringCommit(t *testing.T) {
	b := newBackend()
	const keys = 32
	for i := 0; i < keys; i++ {
		b.set(key(byte(i)), []byte{0})
	}
	st := New(0, b.load)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := st.Gen()
				v := st.View(g)
				for i := 0; i < keys; i++ {
					got, err := v.Get(key(byte(i)))
					if errors.Is(err, ErrBelowWatermark) {
						break
					}
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if st.Watermark() > g {
						// GC passed the view between Get's watermark check
						// and its read; a view's reader must not outlive
						// its generation (see Store.View), so the value
						// carries no guarantee.
						break
					}
					if len(got) != 1 || uint64(got[0]) > g {
						t.Errorf("reader at gen %d saw future value %v", g, got)
						return
					}
				}
				_ = st.Prefetch(key(byte(r)))
			}
		}(r)
	}
	for g := byte(1); g <= 40; g++ {
		writes := make([]types.WriteEntry, 0, keys/2)
		for i := 0; i < keys; i += 2 {
			writes = append(writes, types.WriteEntry{Key: key(byte(i)), Value: []byte{g}})
		}
		keysOnly := make([]types.Key, len(writes))
		for i, w := range writes {
			keysOnly[i] = w.Key
		}
		st.ReserveEpoch(keysOnly)
		if _, err := st.CommitEpoch(writes, b.load); err != nil {
			t.Fatal(err)
		}
		for _, w := range writes {
			b.set(w.Key, w.Value)
		}
		st.ReleaseEpoch()
		if g%8 == 0 {
			st.SetWatermark(st.Gen() - 1)
		}
	}
	close(stop)
	wg.Wait()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalVersionIDsAscendAcrossKeys(t *testing.T) {
	b := newBackend()
	st := New(0, b.load)
	commit(t, st, b, []types.WriteEntry{
		{Key: key(1), Value: []byte("a")},
		{Key: key(2), Value: []byte("b")},
	})
	commit(t, st, b, []types.WriteEntry{{Key: key(1), Value: []byte("c")}})
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.nextGV.Load() != 3 {
		t.Fatalf("allocated %d global versions, want 3", st.nextGV.Load())
	}
}

// TestRollbackEpoch models a failed trie flush: the staged versions are
// unwound and a retry of the same commit produces the same visibility as
// if the failure never happened.
func TestRollbackEpoch(t *testing.T) {
	b := newBackend()
	b.set(key(1), []byte("v0"))
	st := New(0, b.load)
	commit(t, st, b, []types.WriteEntry{{Key: key(1), Value: []byte("v1")}})

	writes := []types.WriteEntry{{Key: key(1), Value: []byte("v2")}, {Key: key(3), Value: []byte("w")}}
	st.ReserveEpoch([]types.Key{key(1), key(3)})
	if _, err := st.CommitEpoch(writes, b.load); err != nil {
		t.Fatal(err)
	}
	// Flush "fails": roll back instead of updating the backend.
	st.RollbackEpoch(writes)
	st.ReleaseEpoch()

	if st.Gen() != 1 {
		t.Fatalf("gen = %d after rollback, want 1", st.Gen())
	}
	if got, err := st.Head().Get(key(1)); err != nil || string(got) != "v1" {
		t.Fatalf("read after rollback = %q, %v; want v1", got, err)
	}
	if got, err := st.Head().Get(key(3)); err != nil || got != nil {
		t.Fatalf("read after rollback = %q, %v; want nil", got, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The retry lands cleanly at the same generation.
	commit(t, st, b, writes)
	if got, err := st.Head().Get(key(1)); err != nil || string(got) != "v2" {
		t.Fatalf("read after retry = %q, %v; want v2", got, err)
	}
	if got, err := st.Head().Get(key(3)); err != nil || string(got) != "w" {
		t.Fatalf("read after retry = %q, %v; want w", got, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoaderErrorPropagates(t *testing.T) {
	boom := errors.New("disk on fire")
	st := New(0, func(types.Key) ([]byte, error) { return nil, boom })
	if _, err := st.Head().Get(key(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want loader error", err)
	}
	if err := st.Prefetch(key(1)); !errors.Is(err, boom) {
		t.Fatalf("prefetch err = %v, want loader error", err)
	}
	if _, err := st.CommitEpoch([]types.WriteEntry{{Key: key(1)}}, nil); !errors.Is(err, boom) {
		t.Fatalf("commit err = %v, want loader error", err)
	}
}

// TestFoldVisitsWrittenChainsOnly pins the epoch bookkeeping: GC samples
// and folds the chains a commit wrote — not the read-only rest of the
// cache — a rolled-back write leaves nothing to fold, a chain the watermark
// did not reach stays listed for the next fold, and the running chain and
// version counts match a recount throughout (CheckInvariants recounts).
func TestFoldVisitsWrittenChainsOnly(t *testing.T) {
	b := newBackend()
	st := New(0, b.load)
	for i := byte(0); i < 100; i++ { // a read-only working set
		if _, err := st.Head().Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	sampled := func() (n uint64) {
		for _, c := range st.Stats().DepthBuckets {
			n += c
		}
		return n
	}
	check := func(chains, versions uint64) {
		t.Helper()
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if s := st.Stats(); s.Chains != chains || s.Versions != versions {
			t.Fatalf("chains=%d versions=%d, want %d/%d", s.Chains, s.Versions, chains, versions)
		}
	}
	check(100, 0)

	commit(t, st, b, []types.WriteEntry{{Key: key(1), Value: []byte("a")}, {Key: key(200), Value: []byte("b")}})
	check(101, 2)
	if got := st.SetWatermark(1); got != 2 || sampled() != 2 {
		t.Fatalf("fold collected %d versions from %d sampled chains, want 2 from 2", got, sampled())
	}
	check(101, 0)

	// Rolled back: the next fold finds the chains empty and samples nothing.
	writes := []types.WriteEntry{{Key: key(2), Value: []byte("c")}, {Key: key(201), Value: []byte("d")}}
	if _, err := st.CommitEpoch(writes, b.load); err != nil {
		t.Fatal(err)
	}
	check(102, 2)
	st.RollbackEpoch(writes)
	check(102, 0)
	commit(t, st, b, []types.WriteEntry{{Key: key(3), Value: []byte("e")}}) // gen 2
	commit(t, st, b, []types.WriteEntry{{Key: key(3), Value: []byte("f")}}) // gen 3
	if got := st.SetWatermark(2); got != 1 || sampled() != 3 {
		t.Fatalf("fold collected %d, sampled %d chains in all; want 1 and 3", got, sampled())
	}
	check(102, 1)
	// key(3) still holds its gen-3 version and must be folded next time.
	if got := st.SetWatermark(3); got != 1 || sampled() != 4 {
		t.Fatalf("second fold collected %d, sampled %d chains in all; want 1 and 4", got, sampled())
	}
	check(102, 0)
	if got, err := st.Head().Get(key(3)); err != nil || string(got) != "f" {
		t.Fatalf("read after folds = %q, %v; want f", got, err)
	}
}
