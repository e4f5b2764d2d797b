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
		"Full (size-tiered) compactions run.")
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
	// MemtableBytes is the approximate memtable payload size that
	// triggers a flush to a new SSTable.
	MemtableBytes int
	// CompactAt is the number of SSTables that triggers a full
	// (size-tiered, single-output) compaction.
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

// LSM is the durable LevelDB-style store: writes land in the WAL and the
// skiplist memtable; full memtables flush to numbered SSTable files; reads
// consult the memtable first and then tables newest-first; compaction
// periodically merges all tables into one. It is safe for concurrent use.
//
// Recovery needs no manifest: live tables are the *.sst files in the
// directory, with higher file numbers taking precedence, and a compaction
// output always carries a higher number than its inputs — so a crash
// between "write merged table" and "remove inputs" leaves a state that
// reads identically.
type LSM struct {
	mu     sync.RWMutex
	opts   LSMOptions
	dir    string
	mem    *skiplist
	log    *wal
	tables []*sstable // ascending file number; later = newer
	nextNo uint64
	closed bool
}

var _ Store = (*LSM)(nil)

// OpenLSM opens (or creates) a store rooted at dir, replaying any
// write-ahead log left by a previous process.
func OpenLSM(dir string, opts LSMOptions) (*LSM, error) {
	if opts.MemtableBytes <= 0 || opts.CompactAt <= 1 {
		return nil, fmt.Errorf("kvstore: invalid LSM options %+v", opts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	s := &LSM{opts: opts, dir: dir, mem: newSkiplist(), nextNo: 1}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: read dir: %w", err)
	}
	var numbers []uint64
	for _, e := range entries {
		name := e.Name()
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
		t, err := openSSTable(s.tablePath(no))
		if err != nil {
			return nil, err
		}
		s.tables = append(s.tables, t)
		if no >= s.nextNo {
			s.nextNo = no + 1
		}
	}
	mTables.Add(float64(len(s.tables)))

	// Replay the WAL into a fresh memtable, then truncate any torn tail
	// before reopening the same log for append. The truncation matters:
	// appending after leftover garbage would strand every later record
	// behind an unreadable span, which the next recovery must reject as
	// corruption (it cannot tell stranded records from planted ones).
	walPath := filepath.Join(dir, "wal.log")
	validLen, err := replayWAL(walPath, opts.FailTag, func(op byte, key, value []byte) {
		k := append([]byte(nil), key...)
		v := append([]byte(nil), value...)
		s.mem.put(k, v, op == walOpDelete)
	})
	if err != nil {
		return nil, err
	}
	if fi, statErr := os.Stat(walPath); statErr == nil && fi.Size() > validLen {
		if err := os.Truncate(walPath, validLen); err != nil {
			return nil, fmt.Errorf("kvstore: truncate torn wal tail: %w", err)
		}
	}
	s.log, err = openWAL(walPath, opts.FailTag)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *LSM) tablePath(no uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%06d.sst", no))
}

// Get implements Store.
func (s *LSM) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if v, tomb, ok := s.mem.get(key); ok {
		if tomb {
			return nil, false, nil
		}
		return append([]byte(nil), v...), true, nil
	}
	for i := len(s.tables) - 1; i >= 0; i-- {
		v, tomb, ok, err := s.tables[i].get(key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if tomb {
				return nil, false, nil
			}
			return append([]byte(nil), v...), true, nil
		}
	}
	return nil, false, nil
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

// Apply implements Store: the batch hits the WAL first, then the memtable,
// and may trigger a flush and compaction.
func (s *LSM) Apply(b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
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
	for _, op := range b.ops {
		s.mem.put(op.key, op.value, op.delete)
	}
	if s.mem.bytes >= s.opts.MemtableBytes {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// flushLocked writes the memtable to a new SSTable, truncates the WAL, and
// compacts when the table count crosses the threshold.
func (s *LSM) flushLocked() error {
	if s.mem.length == 0 {
		return nil
	}
	if err := fail.HitTag(fail.KVFlush, s.opts.FailTag); err != nil {
		return err
	}
	mFlushes.Inc()
	mFlushBytes.Add(float64(s.mem.bytes))
	entries := make([]sstEntry, 0, s.mem.length)
	s.mem.scan(nil, func(key, value []byte, tombstone bool) bool {
		entries = append(entries, sstEntry{key: key, value: value, tombstone: tombstone})
		return true
	})
	no := s.nextNo
	s.nextNo++
	if err := writeSSTable(s.tablePath(no), entries); err != nil {
		return err
	}
	t, err := openSSTable(s.tablePath(no))
	if err != nil {
		return err
	}
	s.tables = append(s.tables, t)
	mTables.Add(1)

	// The memtable is durable in the table now: reset the log.
	if err := s.log.close(); err != nil {
		return err
	}
	walPath := filepath.Join(s.dir, "wal.log")
	if err := os.Remove(walPath); err != nil {
		return fmt.Errorf("kvstore: reset wal: %w", err)
	}
	if s.log, err = openWAL(walPath, s.opts.FailTag); err != nil {
		return err
	}
	s.mem = newSkiplist()

	if len(s.tables) >= s.opts.CompactAt {
		return s.compactLocked()
	}
	return nil
}

// compactLocked merges every table into one, dropping shadowed versions and
// tombstones (a full compaction may discard tombstones because no older
// table remains underneath).
func (s *LSM) compactLocked() error {
	if err := fail.HitTag(fail.KVCompact, s.opts.FailTag); err != nil {
		return err
	}
	merged := make(map[string]sstEntry)
	// Oldest to newest: later tables overwrite.
	for _, t := range s.tables {
		err := t.scan(nil, func(e sstEntry) bool {
			merged[string(e.key)] = e
			return true
		})
		if err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(merged))
	for k, e := range merged {
		if !e.tombstone {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	entries := make([]sstEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, merged[k])
	}

	no := s.nextNo
	s.nextNo++
	if err := writeSSTable(s.tablePath(no), entries); err != nil {
		return err
	}
	t, err := openSSTable(s.tablePath(no))
	if err != nil {
		return err
	}
	old := s.tables
	s.tables = []*sstable{t}
	mCompactions.Inc()
	mTables.Add(float64(1 - len(old))) // the merged output replaced len(old) inputs
	for _, o := range old {
		if err := os.Remove(o.path); err != nil {
			return fmt.Errorf("kvstore: remove compacted table: %w", err)
		}
	}
	return nil
}

// Iter implements Store with a k-way merge across the memtable and all
// tables, newest version winning, tombstones masking.
func (s *LSM) Iter(start, end []byte, fn func(key, value []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	// Materialize the visible range. Simpler than a streaming merge and
	// adequate for the ranges the reproduction scans (state flushes and
	// tests); the memtable and tables are immutable snapshots under RLock.
	merged := make(map[string]sstEntry)
	for _, t := range s.tables {
		err := t.scan(start, func(e sstEntry) bool {
			if end != nil && bytes.Compare(e.key, end) >= 0 {
				return false
			}
			merged[string(e.key)] = e
			return true
		})
		if err != nil {
			s.mu.RUnlock()
			return err
		}
	}
	s.mem.scan(start, func(key, value []byte, tombstone bool) bool {
		if end != nil && bytes.Compare(key, end) >= 0 {
			return false
		}
		merged[string(key)] = sstEntry{key: key, value: value, tombstone: tombstone}
		return true
	})
	s.mu.RUnlock()

	keys := make([]string, 0, len(merged))
	for k, e := range merged {
		if !e.tombstone {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn([]byte(k), merged[k].value) {
			return nil
		}
	}
	return nil
}

// Flush forces the memtable to disk; exposed so the node can persist state
// at epoch boundaries and tests can exercise the table path.
func (s *LSM) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// TableCount reports how many SSTables are live (test instrumentation).
func (s *LSM) TableCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Close implements Store.
func (s *LSM) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	mTables.Add(-float64(len(s.tables)))
	return s.log.close()
}
