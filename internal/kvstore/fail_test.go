package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/fail"
)

// TestApplyFailpointIsClean: an injected batch-commit error must leave the
// store exactly as it was — nothing from the failed batch visible, and the
// next Apply succeeds once the fault clears.
func TestApplyFailpointIsClean(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 16, CompactAt: 4, FailTag: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put([]byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}

	fail.Enable("kvstore/apply", fail.Spec{Mode: fail.ModeError, Tag: "victim", Count: 1})
	b := &Batch{}
	b.Put([]byte("k1"), []byte("v1"))
	b.Put([]byte("k2"), []byte("v2"))
	if err := s.Apply(b); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("Apply = %v, want injected error", err)
	}
	for _, k := range []string{"k1", "k2"} {
		if _, found, _ := s.Get([]byte(k)); found {
			t.Fatalf("key %s visible after failed batch", k)
		}
	}
	// Fault cleared (Count: 1): the retry lands atomically.
	if err := s.Apply(b); err != nil {
		t.Fatalf("retry after injected fault: %v", err)
	}
	if v, found, _ := s.Get([]byte("k2")); !found || string(v) != "v2" {
		t.Fatalf("retried batch not visible: %q %v", v, found)
	}
}

// TestWALAppendCrashMidBatchRecovers: a crash in the middle of a batch's
// WAL appends leaves a partial batch on disk. Reopening must replay the
// durable prefix without error — the torn-tail contract — and the store
// must remain writable.
func TestWALAppendCrashMidBatchRecovers(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	dir := t.TempDir()
	s, err := OpenLSM(dir, LSMOptions{MemtableBytes: 1 << 20, CompactAt: 4, FailTag: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("stable"), []byte("yes")); err != nil {
		t.Fatal(err)
	}

	// Panic on the second append of the next batch: op 1 is in the log
	// buffer, op 2 never lands, the "process" dies without closing.
	fail.Enable("kvstore/wal-append", fail.Spec{Mode: fail.ModePanic, Tag: "victim", After: 1, Count: 1})
	func() {
		defer func() {
			if r := recover(); !fail.IsCrash(r) {
				t.Fatalf("recovered %v, want injected crash", r)
			}
		}()
		b := &Batch{}
		b.Put([]byte("torn1"), []byte("x"))
		b.Put([]byte("torn2"), []byte("y"))
		_ = s.Apply(b)
	}()

	// Crash: abandon the handle without Close (no flush of buffered
	// records) and reopen the directory.
	re, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatalf("reopen after torn batch: %v", err)
	}
	defer re.Close()
	if v, found, _ := re.Get([]byte("stable")); !found || string(v) != "yes" {
		t.Fatalf("pre-crash data lost: %q %v", v, found)
	}
	// The torn batch's ops must not have survived wholesale; whatever
	// prefix replayed, the store keeps working.
	if err := re.Put([]byte("after"), []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := re.Get([]byte("after")); !found || string(v) != "crash" {
		t.Fatalf("post-recovery write lost: %q %v", v, found)
	}
}

// TestFlushFailpointKeepsMemtableServing: an injected flush error fires on
// the worker. It must not lose the sealed memtable — reads keep serving
// from memory — and it comes back exactly once, from the next Apply or
// Flush, before that call writes anything; the flush itself is retried.
func TestFlushFailpointKeepsMemtableServing(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 20, CompactAt: 8, FailTag: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 32; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	fail.Enable("kvstore/flush", fail.Spec{Mode: fail.ModeError, Tag: "victim", Count: 1})
	if err := s.Flush(); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("Flush = %v, want injected error", err)
	}
	if v, found, _ := s.Get([]byte("k07")); !found || string(v) != "v" {
		t.Fatalf("memtable lost after failed flush: %q %v", v, found)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush retry: %v", err)
	}
	if s.TableCount() == 0 {
		t.Fatal("retried flush produced no table")
	}
	if v, found, _ := s.Get([]byte("k07")); !found || string(v) != "v" {
		t.Fatalf("data lost across flush: %q %v", v, found)
	}

	// The same through Apply: the batch that fills the memtable seals it and
	// succeeds; the worker's error belongs to the NEXT batch, which is
	// refused whole.
	fail.Enable("kvstore/flush", fail.Spec{Mode: fail.ModeError, Tag: "victim", Count: 1})
	if err := s.Put([]byte("big"), make([]byte, 1<<20)); err != nil {
		t.Fatalf("the sealing batch is durable and must succeed: %v", err)
	}
	waitWorker(s)
	walBefore := mWALRecords.Value()
	if err := s.Put([]byte("refused"), []byte("x")); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("Put after a failed background flush = %v, want the injected error", err)
	}
	if mWALRecords.Value() != walBefore {
		t.Fatal("the refused batch reached the WAL")
	}
	if _, found, _ := s.Get([]byte("refused")); found {
		t.Fatal("the refused batch is visible")
	}
	if v, found, _ := s.Get([]byte("big")); !found || len(v) != 1<<20 {
		t.Fatal("sealed memtable stopped serving after its flush failed")
	}
	if err := s.Put([]byte("refused"), []byte("x")); err != nil {
		t.Fatalf("the error must surface once: %v", err)
	}
	tables := s.TableCount()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() < tables || s.TableCount() < 2 {
		t.Fatalf("the failed flush was not retried: %d tables", s.TableCount())
	}
}

// waitWorker blocks until the store's worker goroutine, if any, has exited.
func waitWorker(s *LSM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.working {
		s.idle.Wait()
	}
}

// TestBackgroundCrashSurfacesOnCaller: a fail.Crash on the worker must not
// take the process down from a goroutine no harness guards. It is parked,
// reads go on, and the next Apply or Flush panics with it on the caller's
// goroutine — every time, a crashed store stays crashed — leaving a
// directory that reopens to everything acknowledged.
func TestBackgroundCrashSurfacesOnCaller(t *testing.T) {
	for _, site := range []fail.Name{fail.KVFlush, fail.KVTableWrite, fail.KVCompact} {
		t.Run(string(site), func(t *testing.T) {
			fail.Reset()
			defer fail.Reset()
			dir := t.TempDir()
			s, err := OpenLSM(dir, LSMOptions{MemtableBytes: 1 << 10, CompactAt: 2, FailTag: "victim"})
			if err != nil {
				t.Fatal(err)
			}
			fail.Enable(site, fail.Spec{Mode: fail.ModePanic, Tag: "victim", After: 1, Count: 1})
			crashed := func(op func() error) (crashed bool) {
				defer func() {
					if r := recover(); r != nil {
						if !fail.IsCrash(r) {
							panic(r)
						}
						crashed = true
					}
				}()
				if err := op(); err != nil {
					t.Fatal(err)
				}
				return false
			}
			acked := 0
			for ; acked < 200; acked++ {
				k := []byte(fmt.Sprintf("key-%03d", acked))
				if crashed(func() error { return s.Put(k, bytes.Repeat([]byte{'v'}, 100)) }) {
					break
				}
			}
			if acked == 200 {
				t.Fatal("the armed crash never reached a caller")
			}
			if _, _, err := s.Get([]byte("key-000")); err != nil {
				t.Fatalf("reads must go on over a parked crash: %v", err)
			}
			if !crashed(s.Flush) || !crashed(func() error { return s.Put([]byte("late"), nil) }) {
				t.Fatal("a crashed store came back to life")
			}
			waitWorker(s) // the worker is gone: the handle can be abandoned like a killed process

			re, err := OpenLSM(dir, DefaultLSMOptions())
			if err != nil {
				t.Fatalf("reopen after a background crash at %s: %v", site, err)
			}
			defer re.Close()
			for i := 0; i < acked; i++ {
				if _, found, err := re.Get([]byte(fmt.Sprintf("key-%03d", i))); err != nil || !found {
					t.Fatalf("acknowledged key-%03d lost (found=%v err=%v)", i, found, err)
				}
			}
			if _, found, _ := re.Get([]byte("late")); found {
				t.Fatal("a batch refused by the crash is visible after reopen")
			}
			if err := re.Flush(); err != nil { // also waits for the recovered sealed memtable's flush
				t.Fatal(err)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
				t.Fatalf("reopen left torn table files behind: %v", left)
			}
		})
	}
}

// TestTornTableFileIsIgnored: whatever a killed table write leaves under the
// temporary name — here a file with no footer — must not stop the store
// from opening.
func TestTornTableFileIsIgnored(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 10, "a")
	torn := filepath.Join(dir, "000007.sst.tmp")
	if err := os.WriteFile(torn, []byte("half a table"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatalf("a torn table write bricked the store: %v", err)
	}
	defer s.Close()
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn table file survived the open: %v", err)
	}
	if _, found, _ := s.Get([]byte("a-k03")); !found {
		t.Fatal("data lost")
	}
}

// TestWriteStallIsBoundedAndCounted: with the worker slowed down, writers
// outrun it. They must then wait — there is one sealed memtable at most,
// and neither it nor the active one is ever more than a batch over the
// limit — and the wait must show in the stall counters.
func TestWriteStallIsBoundedAndCounted(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	const limit, valueLen = 1 << 10, 200
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: limit, CompactAt: 4, FailTag: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fail.Enable("kvstore/flush", fail.Spec{Mode: fail.ModeDelay, Tag: "victim", Delay: 20 * time.Millisecond})
	stalls, seconds := mWriteStalls.Value(), mWriteStallSeconds.Value()
	start := time.Now()
	for i := 0; i < 40; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%03d", i)), make([]byte, valueLen)); err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		unflushed := s.mem.bytes
		if s.sealed != nil {
			unflushed += s.sealed.bytes
		}
		s.mu.RUnlock()
		if unflushed >= 2*(limit+valueLen+100) {
			t.Fatalf("after put %d the memtables hold %d bytes at a limit of %d each: the writer did not wait", i, unflushed, limit)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flushes := s.TableCount() // CompactAt 4 may have merged some; a lower bound is enough
	if d := mWriteStalls.Value() - stalls; d < 2 {
		t.Fatalf("nezha_lsm_write_stalls_total moved by %.0f over %d slowed flushes", d, flushes)
	}
	waited := mWriteStallSeconds.Value() - seconds
	if waited <= 0 || waited > time.Since(start).Seconds() {
		t.Fatalf("nezha_lsm_write_stall_seconds_total moved by %.3f s in a %.3f s test", waited, time.Since(start).Seconds())
	}
	for i := 0; i < 40; i++ {
		if _, found, _ := s.Get([]byte(fmt.Sprintf("key-%03d", i))); !found {
			t.Fatalf("key-%03d lost", i)
		}
	}
}

// TestWALSyncErrorSurfacesFromApply: a failed log sync must surface to the
// Apply caller rather than silently succeed.
func TestWALSyncErrorSurfacesFromApply(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	s, err := OpenLSM(t.TempDir(), LSMOptions{MemtableBytes: 1 << 20, CompactAt: 4, FailTag: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fail.Enable("kvstore/wal-sync", fail.Spec{Mode: fail.ModeError, Tag: "victim", Count: 1})
	if err := s.Put([]byte("k"), []byte("v")); !errors.Is(err, fail.ErrInjected) {
		t.Fatalf("Put = %v, want injected sync error", err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("retry after sync fault: %v", err)
	}
}
