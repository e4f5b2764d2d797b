package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// SSTable file layout (all integers little-endian):
//
//	entry*   : type(1B) keyLen(uvarint) valLen(uvarint) key val
//	index    : count(u32), then per entry: keyLen(uvarint) key offset(u64)
//	footer   : indexOffset(u64) indexCRC(u32) magic(u64)
//
// The index holds every indexInterval-th entry's key and file offset; a
// lookup binary-searches the in-memory index and scans at most one
// interval. Entries are unique and sorted — each flush/compaction writes
// from an already-deduplicated, already-ordered merge.
const (
	sstMagic      uint64 = 0x4e455a48415f5353 // "NEZHA_SS"
	sstFooterLen         = 20
	indexInterval        = 16
)

const (
	sstOpPut    = walOpPut
	sstOpDelete = walOpDelete
)

// sstEntry is one record streamed out of (or into) a table file.
type sstEntry struct {
	key       []byte
	value     []byte
	tombstone bool
}

// run is a cursor over one sorted, deduplicated source of entries (a
// table, a memtable, a slice): each call yields the next entry, ok=false
// once the source is exhausted.
type run func() (e sstEntry, ok bool, err error)

// mergeRuns streams the union of runs to fn in key order. Runs are ordered
// oldest to newest: where several hold a key, the entry of the last one
// wins and the others are dropped. Tombstones are entries like any other
// here; fn returning false stops the merge.
func mergeRuns(runs []run, fn func(e sstEntry) bool) error {
	heads := make([]sstEntry, len(runs))
	live := make([]bool, len(runs))
	for i := range runs {
		var err error
		if heads[i], live[i], err = runs[i](); err != nil {
			return err
		}
	}
	for {
		best := -1
		for i := range runs {
			// <= 0: on equal keys the later, newer run takes over.
			if live[i] && (best < 0 || bytes.Compare(heads[i].key, heads[best].key) <= 0) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		e := heads[best]
		for i := range runs {
			if live[i] && (i == best || bytes.Equal(heads[i].key, e.key)) {
				var err error
				if heads[i], live[i], err = runs[i](); err != nil {
					return err
				}
			}
		}
		if !fn(e) {
			return nil
		}
	}
}

// tableBuilder lays sorted, deduplicated entries out as a table file image,
// in memory: the image is written once and then serves reads as it stands,
// so a table is never encoded twice or read back.
type tableBuilder struct {
	image []byte // entry region so far
	index []byte // index records so far
	n     int    // entries added
}

func (b *tableBuilder) add(e sstEntry) {
	if b.n%indexInterval == 0 {
		b.index = binary.AppendUvarint(b.index, uint64(len(e.key)))
		b.index = append(b.index, e.key...)
		b.index = binary.LittleEndian.AppendUint64(b.index, uint64(len(b.image)))
	}
	b.n++
	op := byte(sstOpPut)
	if e.tombstone {
		op = sstOpDelete
	}
	b.image = append(b.image, op)
	b.image = binary.AppendUvarint(b.image, uint64(len(e.key)))
	b.image = binary.AppendUvarint(b.image, uint64(len(e.value)))
	b.image = append(b.image, e.key...)
	b.image = append(b.image, e.value...)
}

// finish appends the index and the footer and returns the complete image.
func (b *tableBuilder) finish() []byte {
	indexOffset := len(b.image)
	b.image = binary.LittleEndian.AppendUint32(b.image, uint32((b.n+indexInterval-1)/indexInterval))
	b.image = append(b.image, b.index...)
	crc := crc32.ChecksumIEEE(b.image[indexOffset:])
	b.image = binary.LittleEndian.AppendUint64(b.image, uint64(indexOffset))
	b.image = binary.LittleEndian.AppendUint32(b.image, crc)
	return binary.LittleEndian.AppendUint64(b.image, sstMagic)
}

// mergeImage merges runs (oldest first) into a finished table image.
// sizeHint pre-sizes the image; dropTombstones is for a merge with no older
// table underneath, where a deletion has nothing left to mask.
func mergeImage(runs []run, sizeHint int, dropTombstones bool) ([]byte, error) {
	b := tableBuilder{image: make([]byte, 0, sizeHint)}
	err := mergeRuns(runs, func(e sstEntry) bool {
		if !(dropTombstones && e.tombstone) {
			b.add(e)
		}
		return true
	})
	return b.finish(), err
}

// mergeTables is mergeImage over whole tables (oldest first), the image
// pre-sized to the sum of its inputs, which it cannot outgrow by more than
// index rounding.
func mergeTables(inputs []*sstable, dropTombstones bool) ([]byte, error) {
	runs, size := make([]run, len(inputs)), 0
	for i, t := range inputs {
		runs[i] = t.cursor(nil)
		size += t.size
	}
	return mergeImage(runs, size, dropTombstones)
}

// sstable is a live table: its whole file image resident in memory, with
// the sparse index decoded.
type sstable struct {
	path    string
	size    int    // file image bytes
	data    []byte // entry region, mmap-less: held fully (tables are modest)
	keys    [][]byte
	offsets []uint64
}

// parseSSTable validates the footer and index CRC of a table file image and
// decodes its index. The table keeps raw.
func parseSSTable(path string, raw []byte) (*sstable, error) {
	if len(raw) < sstFooterLen {
		return nil, fmt.Errorf("kvstore: sstable %s truncated", path)
	}
	footer := raw[len(raw)-sstFooterLen:]
	if binary.LittleEndian.Uint64(footer[12:20]) != sstMagic {
		return nil, fmt.Errorf("kvstore: sstable %s bad magic", path)
	}
	indexOffset := binary.LittleEndian.Uint64(footer[0:8])
	if indexOffset > uint64(len(raw)-sstFooterLen) {
		return nil, fmt.Errorf("kvstore: sstable %s index offset out of range", path)
	}
	indexRegion := raw[indexOffset : len(raw)-sstFooterLen]
	if crc32.ChecksumIEEE(indexRegion) != binary.LittleEndian.Uint32(footer[8:12]) {
		return nil, fmt.Errorf("kvstore: sstable %s index corrupt", path)
	}

	t := &sstable{path: path, size: len(raw), data: raw[:indexOffset]}
	if len(indexRegion) < 4 {
		return nil, fmt.Errorf("kvstore: sstable %s index truncated", path)
	}
	count := binary.LittleEndian.Uint32(indexRegion[:4])
	rest := indexRegion[4:]
	for i := uint32(0); i < count; i++ {
		keyLen, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("kvstore: sstable %s index entry corrupt", path)
		}
		rest = rest[n:]
		if keyLen > uint64(len(rest)) || uint64(len(rest))-keyLen < 8 {
			return nil, fmt.Errorf("kvstore: sstable %s index entry truncated", path)
		}
		t.keys = append(t.keys, rest[:keyLen])
		t.offsets = append(t.offsets, binary.LittleEndian.Uint64(rest[keyLen:]))
		rest = rest[keyLen+8:]
	}
	return t, nil
}

// decodeEntry parses one record at offset, returning the entry and the next
// offset.
func (t *sstable) decodeEntry(offset uint64) (sstEntry, uint64, error) {
	buf := t.data[offset:]
	if len(buf) == 0 {
		return sstEntry{}, 0, fmt.Errorf("kvstore: sstable %s read past end", t.path)
	}
	op := buf[0]
	pos := 1
	keyLen, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return sstEntry{}, 0, fmt.Errorf("kvstore: sstable %s entry corrupt", t.path)
	}
	pos += n
	valLen, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return sstEntry{}, 0, fmt.Errorf("kvstore: sstable %s entry corrupt", t.path)
	}
	pos += n
	// Compared piecewise: the lengths are untrusted and their sum may wrap.
	body := uint64(len(buf) - pos)
	if keyLen > body || valLen > body-keyLen {
		return sstEntry{}, 0, fmt.Errorf("kvstore: sstable %s entry truncated", t.path)
	}
	e := sstEntry{
		key:       buf[pos : pos+int(keyLen)],
		value:     buf[pos+int(keyLen) : pos+int(keyLen)+int(valLen)],
		tombstone: op == sstOpDelete,
	}
	return e, offset + uint64(pos) + keyLen + valLen, nil
}

// get looks up key; ok reports whether a record (possibly a tombstone)
// exists in this table.
func (t *sstable) get(key []byte) (value []byte, tombstone, ok bool, err error) {
	if len(t.keys) == 0 {
		return nil, false, false, nil
	}
	// Last index entry with keys[i] <= key.
	i := sort.Search(len(t.keys), func(i int) bool { return bytes.Compare(t.keys[i], key) > 0 }) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	offset := t.offsets[i]
	for steps := 0; steps < indexInterval; steps++ {
		if offset >= uint64(len(t.data)) {
			break
		}
		e, next, err := t.decodeEntry(offset)
		if err != nil {
			return nil, false, false, err
		}
		switch bytes.Compare(e.key, key) {
		case 0:
			return e.value, e.tombstone, true, nil
		case 1:
			return nil, false, false, nil
		}
		offset = next
	}
	return nil, false, false, nil
}

// cursor returns a run over the entries with key >= start, in order.
func (t *sstable) cursor(start []byte) run {
	var offset uint64
	if i := sort.Search(len(t.keys), func(i int) bool { return bytes.Compare(t.keys[i], start) > 0 }) - 1; i > 0 {
		offset = t.offsets[i]
	}
	return func() (sstEntry, bool, error) {
		for offset < uint64(len(t.data)) {
			e, next, err := t.decodeEntry(offset)
			if err != nil {
				return sstEntry{}, false, err
			}
			offset = next
			if bytes.Compare(e.key, start) >= 0 {
				return e, true, nil
			}
		}
		return sstEntry{}, false, nil
	}
}
