package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/nezha-dag/nezha/internal/fail"
)

// openStores returns one of each backend, named, for table-driven tests.
func openStores(t *testing.T) map[string]Store {
	t.Helper()
	lsm, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 12, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"memory": NewMemory(), "lsm": lsm}
}

func TestStoreBasicOps(t *testing.T) {
	for name, s := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if _, found, err := s.Get([]byte("missing")); err != nil || found {
				t.Fatalf("missing key: found=%v err=%v", found, err)
			}
			if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, found, err := s.Get([]byte("k1"))
			if err != nil || !found || string(v) != "v1" {
				t.Fatalf("get k1 = %q, %v, %v", v, found, err)
			}
			// Overwrite.
			if err := s.Put([]byte("k1"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = s.Get([]byte("k1"))
			if string(v) != "v2" {
				t.Fatalf("overwrite: %q", v)
			}
			// Delete, then delete again (idempotent).
			if err := s.Delete([]byte("k1")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete([]byte("k1")); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := s.Get([]byte("k1")); found {
				t.Fatal("deleted key still present")
			}
			// Empty value is a valid value, distinct from absent.
			if err := s.Put([]byte("empty"), nil); err != nil {
				t.Fatal(err)
			}
			v, found, _ = s.Get([]byte("empty"))
			if !found || len(v) != 0 {
				t.Fatalf("empty value: %q, %v", v, found)
			}
		})
	}
}

func TestStoreBatch(t *testing.T) {
	for name, s := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			b := &Batch{}
			b.Put([]byte("a"), []byte("1"))
			b.Put([]byte("b"), []byte("2"))
			b.Put([]byte("a"), []byte("3")) // later op wins
			b.Delete([]byte("b"))
			if b.Len() != 4 {
				t.Fatalf("batch len %d", b.Len())
			}
			if err := s.Apply(b); err != nil {
				t.Fatal(err)
			}
			v, _, _ := s.Get([]byte("a"))
			if string(v) != "3" {
				t.Fatalf("a = %q", v)
			}
			if _, found, _ := s.Get([]byte("b")); found {
				t.Fatal("b survived batch delete")
			}
			b.Reset()
			if b.Len() != 0 {
				t.Fatal("reset failed")
			}
		})
	}
}

// TestBatchRetained: Memory copies what it applies — the batch's key and
// value buffers can be scribbled over once Apply returns, Get still reads the
// originals, and the batch reads as not retained, so Reset carves the next
// keys from the start of the same chunk. The LSM's memtable keeps the
// slices: its Apply reports the batch retained, and the chunk is then never
// rewound, not even after a later Apply that kept nothing.
func TestBatchRetained(t *testing.T) {
	fill := func(b *Batch, n int) {
		for i := 0; i < n; i++ {
			b.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("value-%03d", i)))
		}
	}
	m := NewMemory()
	var b Batch
	fill(&b, 100)
	if err := m.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if b.Retained() {
		t.Fatal("Memory.Apply retained the batch")
	}
	for _, op := range b.ops {
		for _, buf := range [][]byte{op.key, op.value} {
			for i := range buf {
				buf[i] = 0xff
			}
		}
	}
	for i := 0; i < 100; i++ {
		if v, ok, err := m.Get([]byte(fmt.Sprintf("key-%03d", i))); err != nil || !ok || string(v) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("key %d reads %q (%v, %v) after the batch's buffers were overwritten", i, v, ok, err)
		}
	}
	b.Reset()
	chunk := unsafe.SliceData(b.keys)
	fill(&b, 50)
	if unsafe.SliceData(b.keys) != chunk || len(b.keys) != b.carved {
		t.Fatal("a batch Memory applied did not carve its next keys from its one chunk")
	}

	lsm, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 30, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	if err := lsm.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if !b.Retained() {
		t.Fatal("LSM.Apply did not retain the batch")
	}
	held := len(b.keys)
	b.Reset()
	fill(&b, 1)
	if unsafe.SliceData(b.keys) != chunk || len(b.keys) <= held {
		t.Fatal("a batch the LSM retained did not carve on past the keys it holds")
	}
	if err := m.Apply(&b); err != nil { // kept nothing, but the chunk's front is the memtable's
		t.Fatal(err)
	}
	b.Reset()
	fill(&b, 1)
	if unsafe.SliceData(b.keys) == chunk && len(b.keys) <= held {
		t.Fatal("a batch rewound a key chunk the LSM still reads")
	}
	for i := 0; i < 50; i++ {
		if v, ok, err := lsm.Get([]byte(fmt.Sprintf("key-%03d", i))); err != nil || !ok || string(v) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("LSM key %d reads %q (%v, %v)", i, v, ok, err)
		}
	}
}

func TestStoreIter(t *testing.T) {
	for name, s := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for i := 9; i >= 0; i-- { // insert out of order
				if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Delete([]byte("k05")); err != nil {
				t.Fatal(err)
			}
			var got []string
			err := s.Iter([]byte("k02"), []byte("k08"), func(k, v []byte) bool {
				got = append(got, string(k))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"k02", "k03", "k04", "k06", "k07"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter = %v, want %v", got, want)
			}
			// Early stop.
			count := 0
			if err := s.Iter(nil, nil, func(k, v []byte) bool { count++; return count < 3 }); err != nil {
				t.Fatal(err)
			}
			if count != 3 {
				t.Fatalf("early stop visited %d", count)
			}
		})
	}
}

func TestStoreClosedErrors(t *testing.T) {
	for name, s := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get([]byte("x")); err != ErrClosed {
				t.Fatalf("Get after close: %v", err)
			}
			if err := s.Put([]byte("x"), nil); err != ErrClosed {
				t.Fatalf("Put after close: %v", err)
			}
		})
	}
}

func TestLSMFlushAndReadBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{MemtableBytes: 1 << 10, CompactAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Write enough to force several flushes.
	for i := 0; i < 500; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if s.TableCount() == 0 {
		t.Fatal("no SSTable was flushed")
	}
	for i := 0; i < 500; i++ {
		v, found, err := s.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !found {
			t.Fatalf("key %d missing after flush: %v", i, err)
		}
		if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("key %d value corrupt", i)
		}
	}
}

func TestLSMCompactionPreservesData(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{MemtableBytes: 1 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	expect := make(map[string]string)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%03d", rng.Intn(300))
		if rng.Intn(5) == 0 {
			delete(expect, k)
			if err := s.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		v := fmt.Sprintf("v%d", i)
		expect[k] = v
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.TableCount() >= 6 {
		t.Fatalf("compaction never ran: %d tables", s.TableCount())
	}
	for k, v := range expect {
		got, found, err := s.Get([]byte(k))
		if err != nil || !found || string(got) != v {
			t.Fatalf("key %s = %q,%v,%v want %q", k, got, found, err, v)
		}
	}
	// And via iteration.
	seen := make(map[string]string)
	if err := s.Iter(nil, nil, func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(expect) {
		t.Fatalf("iter saw %d keys, want %d", len(seen), len(expect))
	}
}

func TestLSMRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, DefaultLSMOptions()) // huge memtable: nothing flushes
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("k50")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: close without flush, reopen, everything must be
	// back via WAL replay.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		v, found, err := s2.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if i == 50 {
			if found {
				t.Fatal("tombstone lost in recovery")
			}
			continue
		}
		if !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q,%v after recovery", k, v, found)
		}
	}
}

func TestLSMRecoveryTornWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last few bytes off the WAL, as a crash mid-write would.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatalf("torn WAL broke recovery: %v", err)
	}
	defer s2.Close()
	// All but the torn record must be intact.
	for i := 0; i < 49; i++ {
		if _, found, _ := s2.Get([]byte(fmt.Sprintf("k%02d", i))); !found {
			t.Fatalf("k%02d lost", i)
		}
	}
	if _, found, _ := s2.Get([]byte("k49")); found {
		t.Fatal("torn record resurrected")
	}
}

func TestLSMPersistsAcrossFlushedRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{MemtableBytes: 1 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenLSM(dir, LSMOptions{MemtableBytes: 1 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 300; i++ {
		v, found, err := s2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d = %q,%v,%v", i, v, found, err)
		}
	}
}

func TestLSMOptionsValidation(t *testing.T) {
	if _, err := OpenLSM(t.TempDir(), LSMOptions{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

// TestLSMMatchesMemoryModel drives both backends with an identical random
// operation stream and cross-checks every read — the LSM store must be
// observationally equivalent to the trivial map. The LSM is closed and
// reopened at random points, some of them with a sealed log segment on
// disk (a flush that failed), and readers hammer Get and Iter from other
// goroutines while the worker flushes and compacts underneath them.
func TestLSMMatchesMemoryModel(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	dir := t.TempDir()
	opts := LSMOptions{MemtableBytes: 1 << 9, CompactAt: 3, FailTag: "model"}
	lsm, err := OpenLSM(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { lsm.Close() }()
	mem := NewMemory()
	defer mem.Close()

	var current atomic.Pointer[LSM]
	current.Store(lsm)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched() // the writer sets the pace, not the readers
				}
				s := current.Load()
				if _, _, err := s.Get([]byte(fmt.Sprintf("key%03d", rng.Intn(200)))); err != nil && err != ErrClosed {
					t.Errorf("reader %d: Get: %v", r, err)
					return
				}
				if i%16 != 0 {
					continue
				}
				var last []byte
				err := s.Iter([]byte("key050"), []byte("key150"), func(k, v []byte) bool {
					if last != nil && bytes.Compare(last, k) >= 0 {
						t.Errorf("reader %d: Iter went from %q to %q", r, last, k)
						return false
					}
					last = append(last[:0], k...)
					return true
				})
				if err != nil && err != ErrClosed {
					t.Errorf("reader %d: Iter: %v", r, err)
					return
				}
			}
		}(r)
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	rng := rand.New(rand.NewSource(77))
	reopens, sealedOnDisk := 0, 0
	// both applies one write to the model and to the LSM, where a parked
	// worker error (the injected flush failure) refuses it once.
	both := func(op func(Store) error) {
		t.Helper()
		if err := op(mem); err != nil {
			t.Fatal(err)
		}
		err := op(lsm)
		if errors.Is(err, fail.ErrInjected) {
			err = op(lsm)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("key%03d", rng.Intn(200)))
		switch rng.Intn(4) {
		case 0:
			both(func(s Store) error { return s.Delete(k) })
		default:
			v := []byte(fmt.Sprintf("val%d", i))
			both(func(s Store) error { return s.Put(k, v) })
		}
		if i%97 == 0 {
			probe := []byte(fmt.Sprintf("key%03d", rng.Intn(200)))
			lv, lok, lerr := lsm.Get(probe)
			mv, mok, merr := mem.Get(probe)
			if lerr != nil || merr != nil || lok != mok || !bytes.Equal(lv, mv) {
				t.Fatalf("op %d: lsm(%q,%v,%v) != mem(%q,%v,%v)", i, lv, lok, lerr, mv, mok, merr)
			}
		}
		if i%400 == 399 {
			// One close in three finds a sealed memtable the worker could
			// not write: everything is flushed, one more write lands, and
			// its flush fails, retry included.
			if reopens%3 == 0 {
				if err := lsm.Flush(); err != nil {
					t.Fatalf("op %d: flush: %v", i, err)
				}
				both(func(s Store) error { return s.Put([]byte("key000"), []byte("sealed")) })
				fail.Enable(fail.KVFlush, fail.Spec{Mode: fail.ModeError, Tag: "model"})
				if err := lsm.Flush(); !errors.Is(err, fail.ErrInjected) {
					t.Fatalf("op %d: Flush = %v with the flush failpoint armed", i, err)
				}
			}
			if err := lsm.Close(); err != nil && !errors.Is(err, fail.ErrInjected) {
				t.Fatalf("op %d: close: %v", i, err)
			}
			fail.Reset()
			if _, err := os.Stat(filepath.Join(dir, "wal.sealed")); err == nil {
				sealedOnDisk++
			}
			if lsm, err = OpenLSM(dir, opts); err != nil {
				t.Fatalf("op %d: reopen: %v", i, err)
			}
			current.Store(lsm)
			reopens++
		}
	}
	if reopens < 5 || sealedOnDisk < 2 {
		t.Fatalf("%d reopens, %d of them with a sealed segment on disk: the test lost its coverage", reopens, sealedOnDisk)
	}
	// Final full comparison via iteration.
	collect := func(s Store) map[string]string {
		out := make(map[string]string)
		if err := s.Iter(nil, nil, func(k, v []byte) bool {
			out[string(k)] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	lAll, mAll := collect(lsm), collect(mem)
	if len(lAll) != len(mAll) {
		t.Fatalf("key counts differ: %d vs %d", len(lAll), len(mAll))
	}
	for k, v := range mAll {
		if lAll[k] != v {
			t.Fatalf("key %s: %q vs %q", k, lAll[k], v)
		}
	}
}

// TestCompactionAmortised pins what the newest-suffix rule buys: over 200
// flushes of a tiny memtable every merge takes the newest tables and gives
// its output a higher number than any input, the table count stays
// logarithmic, and so does the rewrite cost per ingested byte — the old
// merge-everything compaction rewrote the whole store every CompactAt
// flushes, O(flushes) per byte.
func TestCompactionAmortised(t *testing.T) {
	const flushes, compactAt = 200, 4
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 20, CompactAt: compactAt})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	numbers := func() []uint64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		out := make([]uint64, len(s.tables))
		for i, tab := range s.tables {
			if _, err := fmt.Sscanf(filepath.Base(tab.path), "%d.sst", &out[i]); err != nil {
				t.Fatalf("table file name %q: %v", tab.path, err)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	written, ingested := mTableBytes.Value(), 0
	merges, maxTables := 0, 0
	for f := 0; f < flushes; f++ {
		for i := 0; i < 20; i++ {
			// Append-mostly: fresh keys, one in ten an overwrite or a delete.
			k := []byte(fmt.Sprintf("key-%06d", f*20+i))
			if rng.Intn(10) == 0 {
				k = []byte(fmt.Sprintf("key-%06d", rng.Intn(f*20+i+1)))
			}
			v := make([]byte, 50+rng.Intn(100))
			if rng.Intn(20) == 0 {
				err = s.Delete(k)
			} else {
				err = s.Put(k, v)
				ingested += len(v)
			}
			if err != nil {
				t.Fatal(err)
			}
			ingested += len(k)
		}
		before := numbers()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		after := numbers()
		maxTables = max(maxTables, len(after))
		// What is left of the old tables must be a prefix of them: the
		// merge, if any, took a suffix — the newest — plus the new table.
		kept := after[:len(after)-1]
		if len(kept) > len(before) || !slices.Equal(kept, before[:len(kept)]) {
			t.Fatalf("flush %d: tables %v -> %v: not a newest-suffix merge", f, before, after)
		}
		newest, floor := after[len(after)-1], uint64(0)
		if len(before) > 0 {
			floor = before[len(before)-1]
		}
		if len(kept) < len(before) {
			merges++
			floor++ // the flushed table took the number in between
		}
		if newest <= floor {
			t.Fatalf("flush %d: tables %v -> %v: output number %d is not above every input's", f, before, after, newest)
		}
	}
	log2 := math.Log2(flushes)
	if merges == 0 || float64(maxTables) > compactAt+log2 {
		t.Fatalf("%d merges, up to %d tables live: want some merges and at most CompactAt + log2(flushes) = %.1f tables", merges, maxTables, compactAt+log2)
	}
	amp := (mTableBytes.Value() - written) / float64(ingested)
	if amp > 2*log2 {
		t.Fatalf("wrote %.1f table bytes per ingested byte, want at most 2*log2(%d) = %.1f", amp, flushes, 2*log2)
	}
	t.Logf("%d flushes: %d merges, at most %d tables, %.2f table bytes written per ingested byte", flushes, merges, maxTables, amp)
}

func TestMemoryConcurrentAccess(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := s.Put(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, found, err := s.Get(k); err != nil || !found {
					t.Errorf("read own write failed: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("len = %d", s.Len())
	}
}

// TestSkiplistOrderedQuick: the memtable must keep arbitrary keys sorted.
func TestSkiplistOrderedQuick(t *testing.T) {
	f := func(keys [][]byte) bool {
		sl := newSkiplist()
		for i, k := range keys {
			sl.put(append([]byte(nil), k...), []byte{byte(i)}, false)
		}
		var got []string
		next := sl.cursor(nil)
		for e, ok, _ := next(); ok; e, ok, _ = next() {
			got = append(got, string(e.key))
		}
		return sort.StringsAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLSMPut(b *testing.B) {
	s, err := OpenLSM(b.TempDir(), DefaultLSMOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := make([]byte, 32)
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
		if err := s.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSMGet(b *testing.B) {
	s, err := OpenLSM(b.TempDir(), DefaultLSMOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10_000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get([]byte(fmt.Sprintf("key-%05d", i%10_000))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMChainCommit is the commit path's view of the store without a
// node around it: one op is one epoch-sized batch (2 300 operations,
// 32-byte hash-like keys, ~250-byte values) into a store that keeps
// growing, as a chain's does. The stream is append-mostly with a
// recent-block bias (pebble-bench's WorkloadConfig shape): nine operations
// in ten write a key never seen, the rest rewrite one, four times in five
// from the last eight batches. Beside ns/op it reports the slowest single
// Apply — the stall a commit would have seen — and the table bytes written
// per ingested byte, flushes and compactions together. The store grows with
// b.N, so compare two trees at the same fixed -benchtime Nx.
func BenchmarkLSMChainCommit(b *testing.B) {
	const batchOps, valueLen, recent = 2300, 250, 8
	s, err := OpenLSM(b.TempDir(), DefaultLSMOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	key := func(id uint64) []byte { // a hash stand-in (splitmix64): fixed per id, spread over the key space
		k := make([]byte, 0, 32)
		for x := id; len(k) < 32; {
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			k = binary.LittleEndian.AppendUint64(k, z^z>>31)
		}
		return k
	}
	var (
		next     uint64 // ids 0..next-1 have been written
		ingested int
		slowest  time.Duration
		batch    Batch
	)
	written := mTableBytes.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch.Reset()
		for op := 0; op < batchOps; op++ {
			id := next
			switch {
			case next == 0 || rng.Intn(10) != 0:
				next++
			case rng.Intn(5) != 0:
				id = next - 1 - uint64(rng.Int63n(int64(min(next, recent*batchOps))))
			default:
				id = uint64(rng.Int63n(int64(next)))
			}
			v := make([]byte, valueLen-20+rng.Intn(40))
			batch.Put(key(id), v)
			ingested += 32 + len(v)
		}
		b.StartTimer()
		start := time.Now()
		if err := s.Apply(&batch); err != nil {
			b.Fatal(err)
		}
		slowest = max(slowest, time.Since(start))
	}
	b.StopTimer()
	if err := s.Close(); err != nil { // waits for the worker, so every table write is counted
		b.Fatal(err)
	}
	b.ReportMetric(float64(slowest)/1e6, "max-apply-ms")
	b.ReportMetric((mTableBytes.Value()-written)/float64(ingested), "table-bytes/ingested-byte")
}
