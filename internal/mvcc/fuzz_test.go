package mvcc

import (
	"bytes"
	"testing"

	"github.com/nezha-dag/nezha/internal/types"
)

// FuzzVersionChain decodes fuzz input into an interleaved op sequence —
// epoch commits (through the full reserve/commit/flush/release protocol),
// reads pinned at arbitrary live generations, cold reads at the head, and
// watermark advances — and checks every read against a flat shadow-map oracle: one
// plain map copied per committed generation, the semantics the version
// chains compress. Structural invariants (versions ascending, folds never
// lose the newest at-or-below-watermark value, versions imply base) are
// re-checked after every watermark move and at the end.
func FuzzVersionChain(f *testing.F) {
	// Seeds: a commit+read round trip, a GC fold under live readers, a
	// cold head read after a commit, and a multi-key commit batch.
	f.Add([]byte{0, 2, 1, 10, 2, 20, 1, 1, 0, 3, 0})
	f.Add([]byte{0, 1, 1, 7, 0, 1, 1, 8, 0, 1, 1, 9, 2, 1, 1, 1, 1, 0})
	f.Add([]byte{3, 4, 0, 2, 4, 40, 5, 50, 1, 4, 1, 3, 2})
	f.Add([]byte{0, 4, 1, 1, 2, 2, 3, 3, 4, 4, 1, 3, 1, 2, 0, 1, 2, 99, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		const numKeys = 8 // small key space forces deep chains

		// backing is the mutable flat store behind the mvcc cache;
		// history[g] is the full shadow state at generation g.
		backing := make(map[types.Key][]byte)
		load := func(k types.Key) ([]byte, error) { return backing[k], nil }
		history := []map[types.Key][]byte{{}}
		st := New(0, load)

		snapshotState := func() map[types.Key][]byte {
			m := make(map[types.Key][]byte, len(backing))
			for k, v := range backing {
				m[k] = v
			}
			return m
		}

		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}

		var valSeq byte
		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0: // commit a batch of writes
				nb, _ := next()
				n := int(nb%4) + 1
				writes := make([]types.WriteEntry, 0, n)
				seen := make(map[types.Key]bool, n)
				for i := 0; i < n; i++ {
					kb, ok1 := next()
					vb, ok2 := next()
					if !ok1 || !ok2 {
						break
					}
					k := key(kb % numKeys)
					if seen[k] { // a write batch writes each key once
						continue
					}
					seen[k] = true
					valSeq++
					writes = append(writes, types.WriteEntry{Key: k, Value: []byte{vb, valSeq}})
				}
				if len(writes) == 0 {
					continue
				}
				keys := make([]types.Key, len(writes))
				for i, w := range writes {
					keys[i] = w.Key
				}
				st.ReserveEpoch(keys)
				if _, err := st.CommitEpoch(writes, load); err != nil {
					t.Fatalf("commit: %v", err)
				}
				for _, w := range writes {
					backing[w.Key] = w.Value
				}
				st.ReleaseEpoch()
				history = append(history, snapshotState())
			case 1: // read a key at a live generation
				kb, ok1 := next()
				gb, ok2 := next()
				if !ok1 || !ok2 {
					break
				}
				w := st.Watermark()
				span := st.Gen() - w + 1
				gen := w + uint64(gb)%span
				k := key(kb % numKeys)
				got, err := st.View(gen).Get(k)
				if err != nil {
					t.Fatalf("read key %d at gen %d: %v", kb%numKeys, gen, err)
				}
				want := history[gen][k]
				if !bytes.Equal(got, want) {
					t.Fatalf("read key %d at gen %d = %x, oracle says %x", kb%numKeys, gen, got, want)
				}
			case 2: // advance the watermark
				gb, ok1 := next()
				if !ok1 {
					break
				}
				st.SetWatermark(st.Watermark() + uint64(gb%3))
				if st.Watermark() > st.Gen() {
					t.Fatalf("watermark %d ran past gen %d", st.Watermark(), st.Gen())
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("after gc: %v", err)
				}
			case 3: // read a key at the head generation
				kb, ok1 := next()
				if !ok1 {
					break
				}
				k := key(kb % numKeys)
				gen := st.Gen()
				got, err := st.Head().Get(k)
				if err != nil {
					t.Fatalf("head read: %v", err)
				}
				if want := history[gen][k]; !bytes.Equal(got, want) {
					t.Fatalf("head read key %d = %x, oracle says %x", kb%numKeys, got, want)
				}
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
