package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The compaction the store ran before the streaming merge, kept as the
// oracle: every table scanned oldest to newest into one map, later tables
// overwriting, the keys sorted afterwards, the result written entry by
// entry through a buffered file. Moved here verbatim from lsm.go and
// sstable.go; the one addition is keepTombstones, for merges that leave
// older tables underneath (the old compaction always merged everything).

func refMerge(tables []*sstable, keepTombstones bool) ([]sstEntry, error) {
	merged := make(map[string]sstEntry)
	// Oldest to newest: later tables overwrite.
	for _, t := range tables {
		err := t.scan(nil, func(e sstEntry) bool {
			merged[string(e.key)] = e
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	keys := make([]string, 0, len(merged))
	for k, e := range merged {
		if keepTombstones || !e.tombstone {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	entries := make([]sstEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, merged[k])
	}
	return entries, nil
}

// scan walks all entries with key >= start in order.
func (t *sstable) scan(start []byte, fn func(e sstEntry) bool) error {
	var offset uint64
	if len(t.keys) > 0 {
		i := sort.Search(len(t.keys), func(i int) bool { return bytes.Compare(t.keys[i], start) > 0 }) - 1
		if i > 0 {
			offset = t.offsets[i]
		}
	}
	for offset < uint64(len(t.data)) {
		e, next, err := t.decodeEntry(offset)
		if err != nil {
			return err
		}
		if bytes.Compare(e.key, start) >= 0 {
			if !fn(e) {
				return nil
			}
		}
		offset = next
	}
	return nil
}

// refWriteSSTable persists sorted, deduplicated entries to path.
func refWriteSSTable(path string, entries []sstEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("kvstore: create sstable: %w", err)
	}
	w := bufio.NewWriter(f)

	type indexRec struct {
		key    []byte
		offset uint64
	}
	var (
		index  []indexRec
		offset uint64
	)
	for i, e := range entries {
		if i%indexInterval == 0 {
			index = append(index, indexRec{key: e.key, offset: offset})
		}
		rec := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(e.key)+len(e.value))
		op := byte(sstOpPut)
		if e.tombstone {
			op = sstOpDelete
		}
		rec = append(rec, op)
		rec = binary.AppendUvarint(rec, uint64(len(e.key)))
		rec = binary.AppendUvarint(rec, uint64(len(e.value)))
		rec = append(rec, e.key...)
		rec = append(rec, e.value...)
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("kvstore: write sstable: %w", err)
		}
		offset += uint64(len(rec))
	}

	indexOffset := offset
	var indexBuf bytes.Buffer
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(index)))
	indexBuf.Write(u32[:])
	for _, rec := range index {
		indexBuf.Write(binary.AppendUvarint(nil, uint64(len(rec.key))))
		indexBuf.Write(rec.key)
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], rec.offset)
		indexBuf.Write(u64[:])
	}
	if _, err := w.Write(indexBuf.Bytes()); err != nil {
		return fmt.Errorf("kvstore: write sstable index: %w", err)
	}

	var footer [20]byte
	binary.LittleEndian.PutUint64(footer[0:8], indexOffset)
	binary.LittleEndian.PutUint32(footer[8:12], crc32.ChecksumIEEE(indexBuf.Bytes()))
	binary.LittleEndian.PutUint64(footer[12:20], sstMagic)
	if _, err := w.Write(footer[:]); err != nil {
		return fmt.Errorf("kvstore: write sstable footer: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("kvstore: flush sstable: %w", err)
	}
	return f.Close()
}

// randomTables builds 2–6 tables over a key universe small enough that most
// keys sit in several of them, a quarter of the records tombstones.
func randomTables(t testing.TB, rng *rand.Rand) []*sstable {
	t.Helper()
	tables := make([]*sstable, 2+rng.Intn(5))
	universe := 8 + rng.Intn(120)
	for i := range tables {
		var b tableBuilder
		for k := 0; k < universe; k++ {
			if rng.Intn(3) == 0 {
				continue
			}
			e := sstEntry{key: []byte(fmt.Sprintf("key-%04d", k))}
			if rng.Intn(4) == 0 {
				e.tombstone = true
			} else {
				e.value = bytes.Repeat([]byte{byte('a' + i)}, rng.Intn(40))
			}
			b.add(e)
		}
		var err error
		if tables[i], err = parseSSTable(fmt.Sprintf("table-%d", i), b.finish()); err != nil {
			t.Fatal(err)
		}
	}
	return tables
}

// checkMerge merges tables[first:] with merge and with the reference and
// demands the same entries and, written out, the same file, byte for byte.
func checkMerge(dir string, tables []*sstable, first int, merge func([]*sstable, bool) ([]byte, error)) error {
	full := first == 0
	image, err := merge(tables[first:], full)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	want, err := refMerge(tables[first:], !full)
	if err != nil {
		return fmt.Errorf("reference merge: %w", err)
	}
	got, err := parseSSTable("merged", image)
	if err != nil {
		return fmt.Errorf("merged image does not parse: %w", err)
	}
	var mismatch error
	i := 0
	err = got.scan(nil, func(e sstEntry) bool {
		if i < len(want) {
			w := want[i]
			if !bytes.Equal(e.key, w.key) || !bytes.Equal(e.value, w.value) || e.tombstone != w.tombstone {
				mismatch = fmt.Errorf("entry %d: got (%q, %q, tombstone %v), want (%q, %q, tombstone %v)",
					i, e.key, e.value, e.tombstone, w.key, w.value, w.tombstone)
				return false
			}
		}
		i++
		return true
	})
	if err != nil || mismatch != nil {
		return fmt.Errorf("merged entries: %w", errors.Join(err, mismatch))
	}
	if i != len(want) {
		return fmt.Errorf("merged %d entries, reference %d", i, len(want))
	}
	path := filepath.Join(dir, "ref.sst")
	if err := refWriteSSTable(path, want); err != nil {
		return err
	}
	file, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(image, file) {
		return fmt.Errorf("table image differs from the reference writer's file (%d vs %d bytes)", len(image), len(file))
	}
	return nil
}

// TestMergeMatchesReference: the streaming merge agrees with the map-based
// one on random table sets — keys duplicated across tables, tombstones,
// newest-suffix merges (tombstones kept) and full merges (dropped).
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dir := t.TempDir()
	for trial := 0; trial < 300; trial++ {
		tables := randomTables(t, rng)
		first := rng.Intn(len(tables) - 1)
		if trial%3 == 0 {
			first = 0
		}
		if err := checkMerge(dir, tables, first, mergeTables); err != nil {
			t.Fatalf("trial %d (%d tables, merging from %d): %v", trial, len(tables), first, err)
		}
	}
}

// TestMergeOracleBites is the meta-test: a merge whose tie-break lets the
// OLDEST table holding a key win must not get past checkMerge.
func TestMergeOracleBites(t *testing.T) {
	oldestWins := func(inputs []*sstable, dropTombstones bool) ([]byte, error) {
		reversed := make([]*sstable, len(inputs))
		for i, in := range inputs {
			reversed[len(inputs)-1-i] = in
		}
		return mergeTables(reversed, dropTombstones)
	}
	dir := t.TempDir()
	build := func(value string) *sstable {
		var b tableBuilder
		b.add(sstEntry{key: []byte("k"), value: []byte(value)})
		tab, err := parseSSTable("hand", b.finish())
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	if err := checkMerge(dir, []*sstable{build("old"), build("new")}, 0, oldestWins); err == nil {
		t.Fatal("an overwritten value coming back goes unnoticed")
	}
	rng := rand.New(rand.NewSource(18))
	caught := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		tables := randomTables(t, rng)
		if checkMerge(dir, tables, rng.Intn(len(tables)-1), oldestWins) != nil {
			caught++
		}
	}
	if caught < trials*9/10 {
		t.Fatalf("the oldest-wins tie-break is noticed in only %d of %d random table sets", caught, trials)
	}
}
