// Package rlp mirrors the real encoder's sink surface: dettaint matches
// sinks by package-path tail + name, so this fixture exercises the same
// table entry as github.com/nezha-dag/nezha/internal/rlp.
package rlp

// Item is a minimal stand-in for the encoder's item type.
type Item struct {
	S string
	L []Item
}

// Encode is the sink: the canonical byte encoding of it.
func Encode(it Item) []byte { return []byte(it.S) }

// AppendString is the streaming sink the trie's node encoder uses: the
// canonical encoding of s appended to dst.
func AppendString(dst, s []byte) []byte { return append(dst, s...) }
