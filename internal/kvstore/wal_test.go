package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fillWAL writes n single-put batches so the log holds n records (the
// default memtable never flushes at this size) and closes the store.
func fillWAL(t *testing.T, dir string, n int, gen string) {
	t.Helper()
	s, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("%s-k%02d", gen, i)), []byte(fmt.Sprintf("%s-v%02d", gen, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALMidLogCorruptionRejected plants a flipped byte in the middle of
// the log — intact records follow it, so this is corruption, not a crash
// tear — and requires recovery to refuse loudly: the typed error, the
// counter, and no store. Silently truncating to the prefix here would
// discard acknowledged writes.
func TestWALMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 50, "a")
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := WALCorruptions()
	s, err := OpenLSM(dir, DefaultLSMOptions())
	if err == nil {
		s.Close()
		t.Fatal("recovery accepted a log with mid-record corruption")
	}
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("recovery failed with %v, want ErrWALCorrupt", err)
	}
	if delta := WALCorruptions() - before; delta < 1 {
		t.Fatalf("nezha_wal_corruption_total moved by %.0f, want >= 1", delta)
	}
}

// TestWALTornTailRecoversAndStaysAppendable tears the log mid-record (the
// shape an interrupted write leaves), recovers, then keeps writing and
// recovers again. The second recovery is the regression half: recovery
// must physically truncate the torn bytes before reopening for append,
// or the next generation's records land after garbage and are lost.
func TestWALTornTailRecoversAndStaysAppendable(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 50, "a")
	walPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	before := WALTornTails()
	s, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatalf("torn tail broke recovery: %v", err)
	}
	if delta := WALTornTails() - before; delta != 1 {
		t.Fatalf("nezha_wal_torn_tail_total moved by %.0f, want 1", delta)
	}
	// Second generation of writes over the recovered (truncated) log.
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("b-k%02d", i)), []byte(fmt.Sprintf("b-v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 49; i++ { // record 49 died in the tear
		if _, found, _ := s2.Get([]byte(fmt.Sprintf("a-k%02d", i))); !found {
			t.Fatalf("first-generation a-k%02d lost", i)
		}
	}
	if _, found, _ := s2.Get([]byte("a-k49")); found {
		t.Fatal("torn record resurrected")
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("b-k%02d", i)
		v, found, _ := s2.Get([]byte(k))
		if !found || string(v) != fmt.Sprintf("b-v%02d", i) {
			t.Fatalf("post-tear write %s = %q,%v — appends after the torn tail were lost", k, v, found)
		}
	}
}

// TestWALCleanLogMovesNoCounters pins that an intact log replays without
// tripping either integrity counter: the counters must mean something.
func TestWALCleanLogMovesNoCounters(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 30, "a")
	tornBefore, corruptBefore := WALTornTails(), WALCorruptions()
	s, err := OpenLSM(dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d := WALTornTails() - tornBefore; d != 0 {
		t.Fatalf("clean replay moved nezha_wal_torn_tail_total by %.0f", d)
	}
	if d := WALCorruptions() - corruptBefore; d != 0 {
		t.Fatalf("clean replay moved nezha_wal_corruption_total by %.0f", d)
	}
}

// TestWALAppendAllocs: a record is encoded into the log's own buffer, so
// appending allocates nothing once that buffer has grown to the record size
// (2.9 records per transaction pass through here).
func TestWALAppendAllocs(t *testing.T) {
	w, err := openWAL(filepath.Join(t.TempDir(), "wal"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	key, value := make([]byte, 32), make([]byte, 250)
	if err := w.append(walOpPut, key, value); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := w.append(walOpPut, key, value); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("wal.append allocates %.1f times per record, want 0", allocs)
	}
}
