package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/metrics"
)

// Live storage counters on the default registry, aggregated across every
// open store in the process.
var (
	mFlushes = metrics.Default().Counter("nezha_lsm_flushes_total",
		"Memtable flushes to a new SSTable.")
	mFlushBytes = metrics.Default().Counter("nezha_lsm_flush_bytes_total",
		"Payload bytes flushed out of memtables.")
	mCompactions = metrics.Default().Counter("nezha_lsm_compactions_total",
		"Compactions run (newest-suffix merges into one table).")
	mTableBytes = metrics.Default().Counter("nezha_lsm_table_bytes_total",
		"Bytes written to SSTable files by flushes and compactions.")
	mWriteStalls = metrics.Default().Counter("nezha_lsm_write_stalls_total",
		"Apply calls that waited because the previous sealed memtable was still being flushed.")
	mWriteStallSeconds = metrics.Default().Counter("nezha_lsm_write_stall_seconds_total",
		"Time Apply calls spent in write stalls.")
	mTables = metrics.Default().Gauge("nezha_lsm_tables",
		"Live SSTables across all open stores.")
	mWALRecords = metrics.Default().Counter("nezha_lsm_wal_records_total",
		"Records appended to write-ahead logs.")
	mWALBytes = metrics.Default().Counter("nezha_lsm_wal_bytes_total",
		"Bytes appended to write-ahead logs (including framing).")
	mWALTornTail = metrics.Default().Counter("nezha_wal_torn_tail_total",
		"Torn WAL tails truncated during replay (the clean prefix an in-flight append leaves at a crash).")
	mWALCorruption = metrics.Default().Counter("nezha_wal_corruption_total",
		"WAL replays rejected for mid-log corruption (ErrWALCorrupt).")
)

// WALTornTails and WALCorruptions expose the process-wide replay-integrity
// counters so harnesses (the crash-point sweep, recovery tests) can assert
// on deltas without scraping the exposition endpoint.
func WALTornTails() float64 { return mWALTornTail.Value() }

// WALCorruptions reports how many WAL replays were rejected with
// ErrWALCorrupt. See WALTornTails.
func WALCorruptions() float64 { return mWALCorruption.Value() }

// LSMOptions tunes the LSM store.
type LSMOptions struct {
	// MemtableBytes is the approximate memtable payload size at which the
	// memtable is sealed and flushed to a new SSTable.
	MemtableBytes int
	// CompactAt is the number of SSTables at which a flush is followed by a
	// compaction of the newest tables (see LSM).
	CompactAt int
	// FailTag names this store instance for failpoint scoping: armed
	// kvstore/* failpoints with a matching Spec.Tag hit only this store.
	// Empty leaves the store's sites matchable by untagged specs only.
	FailTag string
}

// DefaultLSMOptions returns small-footprint defaults suitable for the
// reproduction's workloads.
func DefaultLSMOptions() LSMOptions {
	return LSMOptions{MemtableBytes: 4 << 20, CompactAt: 6}
}

// LSM is the durable LevelDB-style store. A write appends to the WAL and
// inserts into the skiplist memtable, nothing else: a full memtable is
// sealed — it keeps serving reads, its WAL segment is moved aside — and
// handed to a worker goroutine that writes it out as a numbered SSTable and
// then compacts. Reads consult the memtable, the sealed memtable and the
// tables newest-first. It is safe for concurrent use.
//
// The worker lives only while there is sealed work, so an idle or abandoned
// store owns no goroutine. There is at most one sealed memtable: a writer
// that fills the next one before the worker is done waits (a counted write
// stall). What goes wrong on the worker is parked and surfaces on the next
// Apply or Flush, before that call writes anything: an error is returned
// once and the work retried, an injected crash (fail.Crash) panics again on
// the caller's goroutine.
//
// A compaction merges the newest tables, tables[i:], into one, for the
// smallest i whose table is no larger than everything newer than it: each
// byte is rewritten O(log(store/memtable)) times, not once per compaction.
// Recovery needs no manifest: live tables are the *.sst files in the
// directory, with higher file numbers taking precedence, and a compaction
// output always carries a higher number than its inputs, which are the
// newest — so a crash between "rename merged table" and "remove inputs"
// leaves a state that reads identically. Tombstones are dropped only when
// every table is merged. Tables reach their names by rename, so a torn
// write is a leftover *.tmp, removed at open.
type LSM struct {
	mu     sync.RWMutex
	opts   LSMOptions
	dir    string
	mem    *skiplist
	sealed *skiplist // full memtable being flushed, immutable; its log is wal.sealed
	log    *wal
	tables []*sstable // ascending file number; later = newer. Replaced, never edited in place
	nextNo uint64     // next table number; the worker's once the store is open
	closed bool

	working bool       // a worker goroutine is running
	idle    *sync.Cond // on mu: the worker installed a table, parked something or exited
	bgErr   error      // parked worker error, returned once by the next Apply/Flush
	crash   any        // parked fail.Crash from the worker, re-panicked by every later Apply/Flush
}

var _ Store = (*LSM)(nil)

// OpenLSM opens (or creates) a store rooted at dir, replaying any
// write-ahead log left by a previous process. A sealed segment left behind
// goes back to a worker as the sealed memtable it was.
func OpenLSM(dir string, opts LSMOptions) (*LSM, error) {
	if opts.MemtableBytes <= 0 || opts.CompactAt <= 1 {
		return nil, fmt.Errorf("kvstore: invalid LSM options %+v", opts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	s := &LSM{opts: opts, dir: dir, nextNo: 1}
	s.idle = sync.NewCond(&s.mu)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: read dir: %w", err)
	}
	var numbers []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".sst.tmp") { // a table write the last process did not finish
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("kvstore: remove torn table: %w", err)
			}
		}
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		no, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		numbers = append(numbers, no)
	}
	sort.Slice(numbers, func(i, j int) bool { return numbers[i] < numbers[j] })
	for _, no := range numbers {
		raw, err := os.ReadFile(s.tablePath(no))
		if err != nil {
			return nil, fmt.Errorf("kvstore: read sstable: %w", err)
		}
		t, err := parseSSTable(s.tablePath(no), raw)
		if err != nil {
			return nil, err
		}
		s.tables = append(s.tables, t)
		s.nextNo = no + 1
	}

	if s.sealed, err = s.replay(s.sealedPath()); err != nil {
		return nil, err
	}
	if s.mem, err = s.replay(s.walPath()); err != nil {
		return nil, err
	}
	if s.log, err = openWAL(s.walPath(), opts.FailTag); err != nil {
		return nil, err
	}
	mTables.Add(float64(len(s.tables)))
	if s.sealed.length == 0 {
		s.sealed = nil
	}
	s.kickLocked() // no one else has the store yet
	return s, nil
}

// replay rebuilds a memtable from the log at path (none is an empty one) and
// cuts any torn tail off the file. The truncation matters for the log that is
// appended to again: appending after leftover garbage would strand every
// later record behind an unreadable span, which the next recovery must
// reject as corruption (it cannot tell stranded records from planted ones).
func (s *LSM) replay(path string) (*skiplist, error) {
	mem := newSkiplist()
	validLen, err := replayWAL(path, s.opts.FailTag, func(op byte, key, value []byte) {
		k := append([]byte(nil), key...)
		v := append([]byte(nil), value...)
		mem.put(k, v, op == walOpDelete)
	})
	if err != nil {
		return nil, err
	}
	if fi, statErr := os.Stat(path); statErr == nil && fi.Size() > validLen {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, fmt.Errorf("kvstore: truncate torn wal tail: %w", err)
		}
	}
	return mem, nil
}

func (s *LSM) tablePath(no uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%06d.sst", no))
}

func (s *LSM) walPath() string    { return filepath.Join(s.dir, "wal.log") }
func (s *LSM) sealedPath() string { return filepath.Join(s.dir, "wal.sealed") }

// Get implements Store.
func (s *LSM) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, tomb, ok := s.mem.get(key)
	if !ok && s.sealed != nil {
		v, tomb, ok = s.sealed.get(key)
	}
	for i := len(s.tables) - 1; i >= 0 && !ok; i-- {
		var err error
		if v, tomb, ok, err = s.tables[i].get(key); err != nil {
			return nil, false, err
		}
	}
	if !ok || tomb {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Put implements Store.
func (s *LSM) Put(key, value []byte) error {
	b := &Batch{}
	b.Put(key, append([]byte(nil), value...)) // Store.Put borrows value; Batch.Put keeps it
	return s.Apply(b)
}

// Delete implements Store.
func (s *LSM) Delete(key []byte) error {
	b := &Batch{}
	b.Delete(key)
	return s.Apply(b)
}

// Apply implements Store: the batch hits the WAL, then the memtable. Table
// I/O is the worker's; Apply waits for it only when the memtable is full
// again before the previous one is flushed.
func (s *LSM) Apply(b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	full := func() bool { return s.mem.bytes >= s.opts.MemtableBytes }
	start := time.Now()
	waited, err := s.awaitLocked(func() bool { return s.sealed == nil || !full() })
	if waited {
		mWriteStalls.Inc()
		mWriteStallSeconds.Add(time.Since(start).Seconds())
	}
	if err == nil && full() {
		err = s.sealLocked()
	}
	if err != nil {
		return err
	}
	// The batch-commit failpoint fires before any op reaches the WAL, so
	// an injected error is clean: nothing of the batch is durable.
	if err := fail.HitTag(fail.KVApply, s.opts.FailTag); err != nil { //nezha:locksafe-ok a delay here models a slow store stalling every caller; error/panic specs unwind past the deferred unlock
		return err
	}
	for _, op := range b.ops {
		walOp := byte(walOpPut)
		if op.delete {
			walOp = walOpDelete
		}
		if err := s.log.append(walOp, op.key, op.value); err != nil {
			return err
		}
	}
	if err := s.log.sync(); err != nil {
		return err
	}
	b.retained = true // the memtable holds the key and value slices until its table is flushed
	for _, op := range b.ops {
		s.mem.put(op.key, op.value, op.delete)
	}
	if full() && s.sealed == nil {
		// Seal now, so the flush overlaps whatever the caller does next.
		// The batch is durable: a failure to seal is the next call's.
		s.bgErr = s.sealLocked()
	}
	return nil
}

// awaitLocked blocks until done holds, surfacing first whatever the worker
// parked: a crash panics here, on the caller's goroutine; an error is
// returned once, with the failed work handed to a fresh worker.
func (s *LSM) awaitLocked(done func() bool) (waited bool, err error) {
	for {
		if s.crash != nil {
			panic(s.crash)
		}
		if err := s.bgErr; err != nil {
			s.bgErr = nil
			s.kickLocked()
			return waited, err
		}
		if done() {
			return waited, nil
		}
		s.kickLocked()
		waited = true
		s.idle.Wait()
	}
}

// sealLocked makes the memtable the sealed one (there must be none), rotates
// its log aside with it and starts the worker.
func (s *LSM) sealLocked() error {
	if err := s.log.rotate(s.sealedPath()); err != nil {
		return err
	}
	s.sealed, s.mem = s.mem, newSkiplist()
	s.kickLocked()
	return nil
}

// kickLocked starts the worker if there is sealed work nobody is doing and
// nothing parked that a caller has yet to see.
func (s *LSM) kickLocked() {
	if s.sealed != nil && !s.working && s.bgErr == nil && s.crash == nil {
		s.working = true
		go s.work()
	}
}

// work is the worker goroutine: flush the sealed memtable, compact, and
// again if another memtable was sealed meanwhile; exit when nothing is
// sealed or something went wrong.
func (s *LSM) work() {
	s.mu.Lock()
	for s.sealed != nil && s.bgErr == nil && s.crash == nil {
		s.mu.Unlock()
		crash, err := s.maintain()
		s.mu.Lock()
		s.crash = crash
		if err != nil { // nil must not wipe a seal failure Apply parked meanwhile
			s.bgErr = err
		}
	}
	s.working = false
	s.idle.Broadcast()
	s.mu.Unlock()
}

// maintain is one round of background work. An injected crash is recovered
// into the return value for work to park; any other panic keeps unwinding.
func (s *LSM) maintain() (crash any, err error) {
	defer func() {
		if r := recover(); r != nil {
			if !fail.IsCrash(r) {
				panic(r)
			}
			crash = r
		}
	}()
	if err := s.flushSealed(); err != nil {
		return nil, err
	}
	return nil, s.compact()
}

// flushSealed writes the sealed memtable out as the newest table, installs
// it and drops the sealed log segment, in that order: until the table has
// its name the segment is what recovery reads, and a crash after leaves both,
// which flushes the same records again into a newer, identical table.
func (s *LSM) flushSealed() error {
	if err := fail.HitTag(fail.KVFlush, s.opts.FailTag); err != nil {
		return err
	}
	mem := s.sealed // stable: only this goroutine clears it, and nothing is sealed over it
	image, err := mergeImage([]run{mem.cursor(nil)}, mem.bytes, false)
	if err != nil {
		return err
	}
	t, err := s.writeTable(image)
	if err != nil {
		return err
	}
	mFlushes.Inc()
	mFlushBytes.Add(float64(mem.bytes))
	mTables.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = append(s.tables, t)
	s.sealed = nil
	s.idle.Broadcast()
	if err := os.Remove(s.sealedPath()); err != nil {
		return fmt.Errorf("kvstore: drop sealed wal: %w", err)
	}
	return nil
}

// compact, once CompactAt tables have piled up, merges the newest suffix of
// them (see LSM) into one table with a streaming merge over the sorted
// inputs, swaps it in and removes the input files.
func (s *LSM) compact() error {
	tables := s.tables // only this goroutine replaces the slice
	first := suffixStart(tables)
	if len(tables) < s.opts.CompactAt || first < 0 {
		return nil
	}
	if err := fail.HitTag(fail.KVCompact, s.opts.FailTag); err != nil {
		return err
	}
	inputs := tables[first:]
	image, err := mergeTables(inputs, first == 0)
	if err != nil {
		return err
	}
	t, err := s.writeTable(image)
	if err != nil {
		return err
	}
	mCompactions.Inc()
	mTables.Add(float64(1 - len(inputs)))
	s.mu.Lock()
	s.tables = append(tables[:first:first], t)
	s.mu.Unlock()
	for _, in := range inputs {
		if err := os.Remove(in.path); err != nil {
			return fmt.Errorf("kvstore: remove compacted table: %w", err)
		}
	}
	return nil
}

// suffixStart picks a compaction's inputs, tables[i:]: the smallest i whose
// table is no larger than all the newer ones together, -1 if there is none
// (each table then outweighs everything after it, so they are few).
func suffixStart(tables []*sstable) int {
	newer := 0
	for _, t := range tables {
		newer += t.size
	}
	for i, t := range tables {
		if newer -= t.size; t.size <= newer {
			return i
		}
	}
	return -1
}

// writeTable gives a finished image the next table number: written under a
// temporary name, renamed into place, parsed where it stands. A crash
// mid-write leaves a *.tmp for OpenLSM to remove, never a torn *.sst.
func (s *LSM) writeTable(image []byte) (*sstable, error) {
	path := s.tablePath(s.nextNo)
	s.nextNo++
	err := os.WriteFile(path+".tmp", image, 0o644)
	if err == nil {
		err = fail.HitTag(fail.KVTableWrite, s.opts.FailTag)
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		_ = os.Remove(path + ".tmp") // best effort: OpenLSM sweeps leftovers anyway
		return nil, fmt.Errorf("kvstore: write sstable: %w", err)
	}
	mTableBytes.Add(float64(len(image)))
	return parseSSTable(path, image)
}

// Iter implements Store with a streaming merge across the memtable, the
// sealed memtable and all tables, newest version winning, tombstones
// masking. fn runs without the store's lock and may call back into the
// store; the slices it is handed alias store memory and must not be
// modified.
func (s *LSM) Iter(start, end []byte, fn func(key, value []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	inRange := func(key []byte) bool { return end == nil || bytes.Compare(key, end) < 0 }
	// The sealed memtable and the tables never change; the memtable does
	// once the lock is dropped, so its part of the range is copied (it is
	// bounded by MemtableBytes).
	var active []sstEntry
	next := s.mem.cursor(start)
	for e, ok, _ := next(); ok && inRange(e.key); e, ok, _ = next() {
		active = append(active, e)
	}
	runs := make([]run, 0, len(s.tables)+2)
	for _, t := range s.tables {
		runs = append(runs, t.cursor(start))
	}
	if s.sealed != nil {
		runs = append(runs, s.sealed.cursor(start))
	}
	s.mu.RUnlock()

	runs = append(runs, func() (e sstEntry, ok bool, err error) {
		if ok = len(active) > 0; ok {
			e, active = active[0], active[1:]
		}
		return e, ok, nil
	})
	return mergeRuns(runs, func(e sstEntry) bool {
		return inRange(e.key) && (e.tombstone || fn(e.key, e.value))
	})
}

// Flush forces the memtable to disk and returns once the worker has
// written it and finished compacting; exposed so the node can persist state
// at epoch boundaries and tests can exercise the table path.
func (s *LSM) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	drained := func() bool { return s.sealed == nil && !s.working }
	if _, err := s.awaitLocked(drained); err != nil || s.mem.length == 0 {
		return err
	}
	if err := s.sealLocked(); err != nil {
		return err
	}
	_, err := s.awaitLocked(drained)
	return err
}

// TableCount reports how many SSTables are live (test instrumentation).
func (s *LSM) TableCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Close implements Store. It waits for the worker to finish what it has in
// hand; a sealed memtable it could not flush stays on disk as its log
// segment and is picked up at the next open.
func (s *LSM) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	for s.working {
		s.idle.Wait()
	}
	s.closed = true
	mTables.Add(-float64(len(s.tables)))
	if err := s.log.close(); err != nil {
		return err
	}
	return s.bgErr // a worker error no Apply or Flush came back for
}
