// Package mpt implements a Merkle Patricia Trie, the authenticated state
// structure the paper's prototype uses to "efficiently organize the state
// object of each account" (§V). The structure follows Ethereum's MPT —
// hex-nibble paths, leaf/extension/branch nodes, hex-prefix key compaction,
// RLP node encoding — with two documented substitutions (DESIGN.md):
//
//   - SHA-256 replaces Keccak-256 (stdlib-only constraint).
//   - Child nodes are always referenced by hash; Ethereum additionally
//     inlines children whose encoding is shorter than 32 bytes. Roots are
//     therefore not byte-compatible with Ethereum, but every property the
//     system relies on — determinism, history independence, Merkle proofs —
//     is preserved.
//
// Tries are copy-on-write per commit: an update copies a node the first
// time it touches it after a Commit and mutates that copy in place from
// then on (generation stamps tell the two apart), so the nodes of the last
// committed root are never written to and a failed update or flush falls
// back to that root by restoring one pointer. The copies are made from the
// nodes earlier commits replaced, once no reader can still be on them
// (Trie.settle), so a steady stream of commits allocates no nodes.
// Snapshots of older epochs do not share in-memory nodes at all — they
// reopen their root by hash over the append-only node store, which is what
// deferred execution needs (§III-B).
package mpt

import (
	"fmt"

	"github.com/nezha-dag/nezha/internal/rlp"
	"github.com/nezha-dag/nezha/internal/types"
)

// node is one trie node. Implementations: (*branchNode), (*shortNode),
// hashNode, valueNode, and the nil interface for "empty".
type node interface {
	// cachedHash returns the memoized hash and whether it is valid.
	cachedHash() (types.Hash, bool)
}

// branchNode has 16 children indexed by nibble plus an optional value for
// keys ending at this node.
type branchNode struct {
	children [16]node
	value    []byte
	hash     types.Hash
	hasHash  bool
	gen      uint64 // Trie.gen at creation or copy; see Trie.gen
}

// shortNode compresses a run of nibbles. If val is valueNode the node is a
// leaf; otherwise it is an extension pointing at a branch.
type shortNode struct {
	key     []byte // nibbles
	val     node
	hash    types.Hash
	hasHash bool
	gen     uint64 // Trie.gen at creation or copy; see Trie.gen
}

// hashNode references a persisted node not yet loaded into memory.
type hashNode types.Hash

// valueNode is a stored value.
type valueNode []byte

func (n *branchNode) cachedHash() (types.Hash, bool) { return n.hash, n.hasHash }
func (n *shortNode) cachedHash() (types.Hash, bool)  { return n.hash, n.hasHash }
func (n hashNode) cachedHash() (types.Hash, bool)    { return types.Hash(n), true }
func (n valueNode) cachedHash() (types.Hash, bool)   { return types.Hash{}, false }

// keyToNibbles expands a byte key into hex nibbles.
func keyToNibbles(key []byte) []byte {
	out := make([]byte, len(key)*2)
	for i, b := range key {
		out[2*i] = b >> 4
		out[2*i+1] = b & 0x0f
	}
	return out
}

// appendHexPrefix appends nibbles packed with the Ethereum hex-prefix
// scheme: the first nibble carries the leaf flag (2) and the odd-length
// flag (1).
func appendHexPrefix(dst, nibbles []byte, leaf bool) []byte {
	var flag byte
	if leaf {
		flag = 2
	}
	if len(nibbles)%2 == 1 {
		dst = append(dst, (flag|1)<<4|nibbles[0])
		nibbles = nibbles[1:]
	} else {
		dst = append(dst, flag<<4)
	}
	for i := 0; i < len(nibbles); i += 2 {
		dst = append(dst, nibbles[i]<<4|nibbles[i+1])
	}
	return dst
}

// hexPrefixDecode unpacks a hex-prefix encoded key.
func hexPrefixDecode(b []byte) (nibbles []byte, leaf bool, err error) {
	if len(b) == 0 {
		return nil, false, fmt.Errorf("mpt: empty hex-prefix key")
	}
	flag := b[0] >> 4
	if flag > 3 {
		return nil, false, fmt.Errorf("mpt: bad hex-prefix flag %d", flag)
	}
	leaf = flag&2 != 0
	odd := flag&1 != 0
	if odd {
		nibbles = append(nibbles, b[0]&0x0f)
	}
	for _, c := range b[1:] {
		nibbles = append(nibbles, c>>4, c&0x0f)
	}
	return nibbles, leaf, nil
}

// decodeNode parses a persisted node encoding.
func decodeNode(enc []byte) (node, error) {
	item, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("mpt: decode node: %w", err)
	}
	if item.K != rlp.KindList {
		return nil, fmt.Errorf("mpt: node is not a list")
	}
	switch len(item.List) {
	case 2:
		keyItem, valItem := item.List[0], item.List[1]
		if keyItem.K != rlp.KindString || valItem.K != rlp.KindString {
			return nil, fmt.Errorf("mpt: malformed short node")
		}
		nibbles, leaf, err := hexPrefixDecode(keyItem.Str)
		if err != nil {
			return nil, err
		}
		if leaf {
			return &shortNode{key: nibbles, val: valueNode(append([]byte(nil), valItem.Str...))}, nil
		}
		if len(valItem.Str) != types.HashLen {
			return nil, fmt.Errorf("mpt: extension child is not a hash")
		}
		var h hashNode
		copy(h[:], valItem.Str)
		return &shortNode{key: nibbles, val: h}, nil
	case 17:
		bn := &branchNode{}
		for i := 0; i < 16; i++ {
			c := item.List[i]
			if c.K != rlp.KindString {
				return nil, fmt.Errorf("mpt: branch child %d is a list", i)
			}
			if len(c.Str) == 0 {
				continue
			}
			if len(c.Str) != types.HashLen {
				return nil, fmt.Errorf("mpt: branch child %d is not a hash", i)
			}
			var h hashNode
			copy(h[:], c.Str)
			bn.children[i] = h
		}
		if item.List[16].K != rlp.KindString {
			return nil, fmt.Errorf("mpt: branch value is a list")
		}
		if len(item.List[16].Str) > 0 {
			bn.value = append([]byte(nil), item.List[16].Str...)
		}
		return bn, nil
	default:
		return nil, fmt.Errorf("mpt: node list has %d items", len(item.List))
	}
}
