package kvstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

type walRec struct {
	op       byte
	key, val []byte
}

// FuzzWAL decodes fuzz input into a sequence of put/delete records, writes
// them through the WAL, and checks the two recovery guarantees replay
// promises: an intact log replays every record byte-for-byte in order, and
// a log truncated at ANY byte offset (the tail a crash leaves) replays a
// clean prefix of the written records — never an error, never a mangled or
// reordered record.
func FuzzWAL(f *testing.F) {
	f.Add([]byte{1, 3, 2, 'k', 'e', 'y', 'v', '2', 2, 1, 0, 'x'}, uint16(0))
	f.Add([]byte{1, 0, 0, 2, 0, 0}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "wal")
		w, err := openWAL(path, "")
		if err != nil {
			t.Fatalf("open: %v", err)
		}

		var recs []walRec
		for pos := 0; pos+2 < len(data); {
			op := walOpPut
			if data[pos]%2 == 0 {
				op = walOpDelete
			}
			keyLen := int(data[pos+1] % 9)
			valLen := int(data[pos+2] % 17)
			pos += 3
			key := make([]byte, 0, keyLen)
			for i := 0; i < keyLen; i++ {
				key = append(key, byte(pos+i))
			}
			val := make([]byte, 0, valLen)
			for i := 0; i < valLen; i++ {
				val = append(val, byte(pos+i)^0x5A)
			}
			pos += 1 // advance so consecutive records differ
			if err := w.append(byte(op), key, val); err != nil {
				t.Fatalf("append: %v", err)
			}
			recs = append(recs, walRec{byte(op), key, val})
		}
		if err := w.close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Intact log: replay must reproduce every record exactly and report
		// the whole file as valid.
		var got []walRec
		validLen, err := replayWAL(path, "", func(op byte, key, value []byte) {
			got = append(got, walRec{op, append([]byte(nil), key...), append([]byte(nil), value...)})
		})
		if err != nil {
			t.Fatalf("replay intact: %v", err)
		}
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if validLen != fi.Size() {
			t.Fatalf("intact log: valid length %d, file size %d", validLen, fi.Size())
		}
		requireRecPrefix(t, recs, got, len(recs))

		// Torn log: truncate at an arbitrary byte offset and replay.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			return
		}
		torn := filepath.Join(dir, "torn")
		cutAt := int(cut) % (len(raw) + 1)
		if err := os.WriteFile(torn, raw[:cutAt], 0o644); err != nil {
			t.Fatal(err)
		}
		got = nil
		validLen, err = replayWAL(torn, "", func(op byte, key, value []byte) {
			got = append(got, walRec{op, append([]byte(nil), key...), append([]byte(nil), value...)})
		})
		if err != nil {
			t.Fatalf("replay torn: %v", err)
		}
		if validLen > int64(cutAt) {
			t.Fatalf("torn log: valid length %d past the cut at %d", validLen, cutAt)
		}
		requireRecPrefix(t, recs, got, -1)
	})
}

// requireRecPrefix asserts got is a prefix of want; wantLen >= 0 demands an
// exact length too.
func requireRecPrefix(t *testing.T, want, got []walRec, wantLen int) {
	t.Helper()
	if wantLen >= 0 && len(got) != wantLen {
		t.Fatalf("replayed %d records, want %d", len(got), wantLen)
	}
	if len(got) > len(want) {
		t.Fatalf("replay invented records: %d > %d", len(got), len(want))
	}
	for i := range got {
		if got[i].op != want[i].op || !bytes.Equal(got[i].key, want[i].key) || !bytes.Equal(got[i].val, want[i].val) {
			t.Fatalf("record %d mangled: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// FuzzSSTable feeds arbitrary bytes to the table reader twice over. As a
// file image: parseSSTable, get and cursor must reject or read them without
// panicking or reading out of range, whatever the lengths and offsets
// claim. As a program of entries for the builder: every image the builder
// produces must parse and give every entry back, by cursor and by get.
func FuzzSSTable(f *testing.F) {
	var b tableBuilder
	for i := 0; i < 40; i++ {
		b.add(sstEntry{key: []byte{'k', byte(i)}, value: bytes.Repeat([]byte{byte(i)}, i), tombstone: i%7 == 0})
	}
	valid := b.finish()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add((&tableBuilder{}).finish())
	// One entry whose key length wraps int when added to the value length.
	huge := []byte{sstOpPut, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x10, 'k'}
	f.Add(sealImage(huge, 1, []byte{1, 'k', 0, 0, 0, 0, 0, 0, 0, 0}))
	f.Add([]byte{3, 1, 2, 9, 9, 0, 200, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if tab, err := parseSSTable("fuzz", data); err == nil {
			probe := []byte{'k', 3}
			if len(data) > 2 {
				probe = data[:len(data)%8]
			}
			_, _, _, _ = tab.get(probe)
			for _, k := range tab.keys {
				_, _, _, _ = tab.get(k)
			}
			for _, start := range [][]byte{nil, probe} {
				next := tab.cursor(start)
				for n := 0; ; n++ {
					if n > len(data) {
						t.Fatalf("cursor yielded more entries than the image has bytes")
					}
					if _, ok, err := next(); !ok || err != nil {
						break
					}
				}
			}
		}

		// The same bytes as a builder program: strictly ascending 2-byte
		// keys, value length and tombstone bit taken from the input.
		var b tableBuilder
		var want []sstEntry
		for i := 0; i+1 < len(data) && len(want) < 1<<12; i += 2 {
			e := sstEntry{key: []byte{byte(len(want) >> 8), byte(len(want))}}
			if data[i]%5 == 0 {
				e.tombstone = true
			} else {
				e.value = bytes.Repeat(data[i+1:i+2], int(data[i])%40)
			}
			want = append(want, e)
			b.add(e)
		}
		tab, err := parseSSTable("built", b.finish())
		if err != nil {
			t.Fatalf("the builder's own image does not parse: %v", err)
		}
		next := tab.cursor(nil)
		for i, w := range want {
			e, ok, err := next()
			if err != nil || !ok || !bytes.Equal(e.key, w.key) || !bytes.Equal(e.value, w.value) || e.tombstone != w.tombstone {
				t.Fatalf("entry %d: cursor gave (%x, %x, %v) ok=%v err=%v, want (%x, %x, %v)",
					i, e.key, e.value, e.tombstone, ok, err, w.key, w.value, w.tombstone)
			}
			v, tomb, found, err := tab.get(w.key)
			if err != nil || !found || tomb != w.tombstone || !bytes.Equal(v, w.value) {
				t.Fatalf("entry %d: get gave (%x, %v) found=%v err=%v", i, v, tomb, found, err)
			}
		}
		if _, ok, _ := next(); ok {
			t.Fatal("cursor yields more entries than were built")
		}
	})
}

// sealImage wraps a hand-written entry region and index records in a valid
// count, CRC and footer, so the fuzzer starts past the checksum.
func sealImage(entries []byte, count uint32, index []byte) []byte {
	image := append([]byte(nil), entries...)
	image = binary.LittleEndian.AppendUint32(image, count)
	image = append(image, index...)
	crc := crc32.ChecksumIEEE(image[len(entries):])
	image = binary.LittleEndian.AppendUint64(image, uint64(len(entries)))
	image = binary.LittleEndian.AppendUint32(image, crc)
	return binary.LittleEndian.AppendUint64(image, sstMagic)
}
