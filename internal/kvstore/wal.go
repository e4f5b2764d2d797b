package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/nezha-dag/nezha/internal/fail"
)

// wal is the write-ahead log making memtable contents durable before they
// reach an SSTable. Record format:
//
//	crc32(le, 4B) | type(1B) | keyLen(uvarint) | valLen(uvarint) | key | val
//
// The CRC covers everything after itself. Replay classifies damage rather
// than truncating silently: a clean torn tail — the record prefix an
// in-flight append leaves when the process dies — is counted, truncated by
// the caller, and survived, while mid-log corruption is rejected with
// ErrWALCorrupt. See replayWAL for the classification contract.
type wal struct {
	f    *os.File
	w    *bufio.Writer
	path string
	// tag scopes this log's failpoints to its owning store (see
	// LSMOptions.FailTag).
	tag string
	// buf is the record being encoded, reused from one append to the next.
	buf []byte
}

const (
	walOpPut    = 1
	walOpDelete = 2
	// walBufferBytes sizes the log's write buffer: an epoch's batch is
	// several hundred KiB, which bufio's 4 KiB default turns into as many
	// write calls as it has pages.
	walBufferBytes = 64 << 10
)

// ErrWALCorrupt reports mid-log write-ahead-log corruption: a record whose
// CRC fails with its bytes fully present, a record carrying an impossible
// length, or an unreadable span followed by an intact record — shapes a
// crash tear cannot produce, because a tear always leaves a clean prefix.
// Recovery refuses to guess which records survive and fails loudly instead.
var ErrWALCorrupt = errors.New("kvstore: wal corrupt")

// errWALTruncated marks a record cut off by end-of-file during parsing —
// the shape of a torn tail, pending the intact-records-after check that
// distinguishes it from corruption.
var errWALTruncated = errors.New("record truncated by end of file")

func openLogFile(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	return f, nil
}

func openWAL(path, tag string) (*wal, error) {
	f, err := openLogFile(path)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, walBufferBytes), path: path, tag: tag}, nil
}

// append writes one record. Sync durability is left to the caller (sync).
func (w *wal) append(op byte, key, value []byte) error {
	if err := fail.HitTag(fail.KVWALAppend, w.tag); err != nil {
		return err
	}
	b := append(w.buf[:0], 0, 0, 0, 0, op) // the CRC goes in once the payload is complete
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = binary.AppendUvarint(b, uint64(len(value)))
	b = append(b, key...)
	b = append(b, value...)
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(b[4:]))
	w.buf = b
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("kvstore: wal write: %w", err)
	}
	mWALRecords.Inc()
	mWALBytes.Add(float64(len(b)))
	return nil
}

// rotate moves the log written so far aside — a sealed segment, complete
// and never appended to again — and continues in a fresh file at the same
// path. The rename comes first: until the fresh file is open the log keeps
// its records and its handle, so a failure leaves it appendable.
func (w *wal) rotate(aside string) error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := os.Rename(w.path, aside); err != nil {
		return fmt.Errorf("kvstore: seal wal: %w", err)
	}
	f, err := openLogFile(w.path)
	if err != nil {
		_ = os.Rename(aside, w.path) // best effort: the open handle follows the file either way
		return err
	}
	sealed := w.f
	w.f = f
	w.w.Reset(f)
	return sealed.Close()
}

// sync flushes buffered records to the OS. (fsync is intentionally skipped:
// the reproduction trades disk-crash durability for benchmark throughput,
// like LevelDB's default write options.)
func (w *wal) sync() error {
	if err := fail.HitTag(fail.KVWALSync, w.tag); err != nil {
		return err
	}
	return w.w.Flush()
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Close()
}

// parseWALRecord decodes one record at the start of b, returning the
// record's total encoded size. n == 0 with a nil error means b is empty —
// the clean end of the log. errWALTruncated means the record runs past the
// end of b; any other error describes damage with the bytes fully present.
func parseWALRecord(b []byte) (op byte, key, value []byte, n int, err error) {
	if len(b) == 0 {
		return 0, nil, nil, 0, nil
	}
	if len(b) < 5 {
		return 0, nil, nil, 0, errWALTruncated
	}
	crc := binary.LittleEndian.Uint32(b[:4])
	op = b[4]
	p := 5
	keyLen, kn := binary.Uvarint(b[p:])
	if kn == 0 {
		return 0, nil, nil, 0, errWALTruncated
	}
	if kn < 0 {
		return 0, nil, nil, 0, errors.New("key length varint overflows uint64")
	}
	p += kn
	valLen, vn := binary.Uvarint(b[p:])
	if vn == 0 {
		return 0, nil, nil, 0, errWALTruncated
	}
	if vn < 0 {
		return 0, nil, nil, 0, errors.New("value length varint overflows uint64")
	}
	p += vn
	// A fully-parsed varint is byte-identical to what the writer emitted (a
	// tear mid-varint leaves a continuation bit set and parses as
	// truncated), so an absurd length here is damage, not a tear.
	if keyLen > 1<<30 || valLen > 1<<30 {
		return 0, nil, nil, 0, fmt.Errorf("impossible record lengths key=%d value=%d", keyLen, valLen)
	}
	total := p + int(keyLen) + int(valLen)
	if total > len(b) {
		return 0, nil, nil, 0, errWALTruncated
	}
	if crc32.ChecksumIEEE(b[4:total]) != crc {
		return 0, nil, nil, 0, errors.New("crc mismatch")
	}
	body := b[p:total]
	return op, body[:keyLen], body[keyLen:], total, nil
}

// replayWAL streams the records of the log at path into fn and returns
// validLen, the byte offset just past the last intact record — the length
// the caller must truncate the file to before appending again, so a torn
// tail can never strand later appends behind unreadable bytes.
//
// Damage classification, the recovery-integrity contract (DESIGN.md §15):
//
//   - Clean torn tail: a record cut off by end-of-file with nothing intact
//     after it. This is the prefix an in-flight append leaves at a crash;
//     it is counted in nezha_wal_torn_tail_total and replay returns nil.
//   - Mid-log corruption: a CRC failure with the record's bytes fully
//     present, an impossible length, or an unreadable span followed by an
//     intact record. Counted in nezha_wal_corruption_total and rejected
//     with ErrWALCorrupt carrying the byte offset for forensics.
//
// tag scopes the kvstore/wal-replay failpoint to the owning store.
func replayWAL(path, tag string, fn func(op byte, key, value []byte)) (validLen int64, err error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("kvstore: open wal for replay: %w", err)
	}
	off := 0
	for {
		op, key, value, n, perr := parseWALRecord(raw[off:])
		switch {
		case perr == nil && n == 0:
			return int64(off), nil // clean end of log
		case errors.Is(perr, errWALTruncated):
			if j := scanWALRecord(raw, off+1); j >= 0 {
				mWALCorruption.Inc()
				return int64(off), fmt.Errorf("%w: unreadable span at byte offset %d with an intact record after it at offset %d (%s, %d bytes)",
					ErrWALCorrupt, off, j, path, len(raw))
			}
			mWALTornTail.Inc()
			return int64(off), nil
		case perr != nil:
			mWALCorruption.Inc()
			return int64(off), fmt.Errorf("%w: %v at byte offset %d (%s, %d bytes)",
				ErrWALCorrupt, perr, off, path, len(raw))
		}
		if err := fail.HitTag(fail.KVWALReplay, tag); err != nil {
			return int64(off), err
		}
		fn(op, key, value)
		off += n
	}
}

// scanWALRecord reports the offset of the first intact (CRC-checked, fully
// present) record at or after from, or -1 if none exists. A valid record
// materializing from unrelated bytes is a ~2^-32 CRC coincidence, so a hit
// is taken as proof that the unreadable span before it is corruption
// rather than a tear — a tear cannot leave bytes after itself.
func scanWALRecord(raw []byte, from int) int {
	for j := from; j < len(raw); j++ {
		if _, _, _, n, err := parseWALRecord(raw[j:]); err == nil && n > 0 {
			return j
		}
	}
	return -1
}
