package flow

import (
	"sort"
	"time"

	"helper"
	"journal"
	"mpt"
	"rlp"
)

// Local flow: map iteration order reaches the encoder unsorted.
func encodeKeysUnsorted(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	it := rlp.Item{}
	for _, k := range keys {
		it.S += k
	}
	return rlp.Encode(it) // want `nondeterministic ordering .* flows into canonical RLP encoding`
}

// The canonical fix: sorting kills ordering taint.
func encodeKeysSorted(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	it := rlp.Item{}
	for _, k := range keys {
		it.S += k
	}
	return rlp.Encode(it)
}

// A commutative fold is order-insensitive: summing map values in any
// iteration order gives the same total.
func encodeSum(m map[string]uint64) []byte {
	var total uint64
	for _, v := range m {
		total += v
	}
	return rlp.Encode(rlp.Item{S: string(rune(total))})
}

// Value taint: wall-clock content can never be canonicalized away.
func stampNow() []byte {
	now := time.Now().UnixNano()
	return rlp.Encode(rlp.Item{S: string(rune(now))}) // want `nondeterministic value .* flows into canonical RLP encoding`
}

// The escape hatch suppresses a justified flow.
func stampAnnotated() []byte {
	now := time.Now().UnixNano()
	return rlp.Encode(rlp.Item{S: string(rune(now))}) //nezha:dettaint-ok fixture exercising the annotation path
}

// Cross-package laundering through a result: the source (map range) is
// inside helper.Keys, the sink is here.
func encodeHelperKeys(m map[string]int) []byte {
	ks := helper.Keys(m)
	it := rlp.Item{}
	for _, k := range ks {
		it.S += k
	}
	return rlp.Encode(it) // want `nondeterministic ordering .* flows into canonical RLP encoding`
}

// Sorting the laundered result sanitizes it.
func encodeHelperKeysSorted(m map[string]int) []byte {
	ks := helper.Keys(m)
	sort.Strings(ks)
	it := rlp.Item{}
	for _, k := range ks {
		it.S += k
	}
	return rlp.Encode(it)
}

// Cross-package laundering through a parameter: the sink (rlp.Encode)
// is inside helper.EncodeJoined, the source is here — the diagnostic
// lands on the outermost tainted call.
func encodeJoinedUnsorted(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return helper.EncodeJoined(keys) // want `nondeterministic ordering .* flows into canonical RLP encoding`
}

// Per-iteration journal emission in map order diverges the journal.
func emitKeys(r *journal.Recorder, m map[string]uint64) {
	for k, v := range m {
		r.Emit(k, journal.F(k, v)) // want `nondeterministic ordering .* flows into deterministic journal event`
	}
}

// len() of an order-tainted collection is order-insensitive.
func emitCount(r *journal.Recorder, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	r.Emit("count", journal.F("n", uint64(len(keys))))
}

// The select winner's value depends on scheduling.
func emitWinner(r *journal.Recorder, a, b chan uint64) {
	var v uint64
	select {
	case v = <-a:
	case v = <-b:
	}
	r.Emit("winner", journal.F("v", v)) // want `nondeterministic value .* flows into deterministic journal event`
}

// The commit path's entry point: an overlay flattened in map order must
// not reach the trie's batch update unsorted (the batch descent requires
// key order, and every replica must hand over the same batch).
func commitOverlayUnsorted(tr *mpt.Trie, overlay map[string][]byte) error {
	var writes []mpt.Write
	for k, v := range overlay {
		writes = append(writes, mpt.Write{Key: k, Value: v})
	}
	return tr.Update(writes) // want `nondeterministic ordering .* flows into state-trie batch write`
}

// Sorting the flattened overlay is the fix the node applies.
func commitOverlaySorted(tr *mpt.Trie, overlay map[string][]byte) error {
	var writes []mpt.Write
	for k, v := range overlay {
		writes = append(writes, mpt.Write{Key: k, Value: v})
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].Key < writes[j].Key })
	return tr.Update(writes)
}

// The exported append encoder is a sink like Encode.
func appendKeysUnsorted(m map[string]int) []byte {
	var out []byte
	for k := range m {
		out = rlp.AppendString(out, []byte(k)) // want `nondeterministic ordering .* flows into canonical RLP encoding`
	}
	return out
}

type byKey []string

func (b byKey) Len() int           { return len(b) }
func (b byKey) Less(i, j int) bool { return b[i] < b[j] }
func (b byKey) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// sort.Sort through a named slice type sorts the collector in place too.
func encodeKeysSortedByType(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(byKey(keys))
	it := rlp.Item{}
	for _, k := range keys {
		it.S += k
	}
	return rlp.Encode(it)
}
