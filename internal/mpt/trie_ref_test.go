package mpt

// The per-key trie this package shipped before the batch update, kept
// verbatim as the oracle for it: insert/remove/collapse* walk root to leaf
// once per key and copy every node on the way, encodeNode builds an
// rlp.Item tree per node, and the dirty set is a map flushed in sorted
// order. Only the receiver type changed (refTrie instead of Trie).

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/rlp"
	"github.com/nezha-dag/nezha/internal/types"
)

type refTrie struct {
	store kvstore.Store
	root  node
	// dirty accumulates freshly-encoded nodes between Commits.
	dirty map[types.Hash][]byte
}

func newRefTrie(root types.Hash, store kvstore.Store) *refTrie {
	t := &refTrie{store: store, dirty: make(map[types.Hash][]byte)}
	if root != EmptyRoot {
		t.root = hashNode(root)
	}
	return t
}

// resolve loads a node behind a hash reference.
func (t *refTrie) resolve(n node) (node, error) {
	h, ok := n.(hashNode)
	if !ok {
		return n, nil
	}
	if enc, dirty := t.dirty[types.Hash(h)]; dirty {
		return decodeNode(enc)
	}
	enc, found, err := t.store.Get(h[:])
	if err != nil {
		return nil, fmt.Errorf("mpt: load node: %w", err)
	}
	if !found {
		return nil, fmt.Errorf("%w: %s", ErrMissingNode, types.Hash(h))
	}
	return decodeNode(enc)
}

// copyBranch returns a mutable copy with the hash cache cleared.
func (n *branchNode) copy() *branchNode {
	c := *n
	c.hasHash = false
	return &c
}

// copyShort returns a mutable copy with the hash cache cleared.
func (n *shortNode) copy() *shortNode {
	c := *n
	c.hasHash = false
	return &c
}

// prefixLen returns the length of the common prefix of a and b.
func prefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// hexPrefixEncode packs nibbles into bytes with the Ethereum hex-prefix
// scheme: the first nibble carries the leaf flag (2) and the odd-length
// flag (1).
func hexPrefixEncode(nibbles []byte, leaf bool) []byte {
	var flag byte
	if leaf {
		flag = 2
	}
	odd := len(nibbles) % 2
	out := make([]byte, 1+len(nibbles)/2)
	out[0] = (flag | byte(odd)) << 4
	if odd == 1 {
		out[0] |= nibbles[0]
		nibbles = nibbles[1:]
	}
	for i := 0; i < len(nibbles); i += 2 {
		out[1+i/2] = nibbles[i]<<4 | nibbles[i+1]
	}
	return out
}

// encodeNode RLP-encodes a node, with children referenced by hash. store
// receives the (hash → encoding) pair of every freshly-hashed descendant.
func encodeNode(n node, store func(h types.Hash, enc []byte)) (types.Hash, []byte) {
	switch n := n.(type) {
	case *shortNode:
		var item rlp.Item
		if v, isLeaf := n.val.(valueNode); isLeaf {
			item = rlp.List(rlp.String(hexPrefixEncode(n.key, true)), rlp.String(v))
		} else {
			childHash := hashNodeRef(n.val, store)
			item = rlp.List(rlp.String(hexPrefixEncode(n.key, false)), rlp.String(childHash[:]))
		}
		enc := rlp.Encode(item)
		h := types.HashBytes(enc)
		n.hash, n.hasHash = h, true
		if store != nil {
			store(h, enc)
		}
		return h, enc
	case *branchNode:
		items := make([]rlp.Item, 17)
		for i, child := range n.children {
			if child == nil {
				items[i] = rlp.String(nil)
				continue
			}
			childHash := hashNodeRef(child, store)
			items[i] = rlp.String(childHash[:])
		}
		items[16] = rlp.String(n.value)
		enc := rlp.Encode(rlp.List(items...))
		h := types.HashBytes(enc)
		n.hash, n.hasHash = h, true
		if store != nil {
			store(h, enc)
		}
		return h, enc
	default:
		panic(fmt.Sprintf("mpt: encodeNode on %T", n))
	}
}

// hashNodeRef returns the hash of a child reference, encoding it first when
// its cache is cold.
func hashNodeRef(n node, store func(h types.Hash, enc []byte)) types.Hash {
	if h, ok := n.cachedHash(); ok {
		return h
	}
	h, _ := encodeNode(n, store)
	return h
}

// Put inserts or replaces key → value. An empty value deletes the key,
// matching Ethereum semantics.
func (t *refTrie) Put(key, value []byte) error {
	if len(value) == 0 {
		return t.Delete(key)
	}
	newRoot, err := t.insert(t.root, keyToNibbles(key), append([]byte(nil), value...))
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

func (t *refTrie) insert(n node, path []byte, value []byte) (node, error) {
	switch n := n.(type) {
	case nil:
		// A value with no children below it is always a leaf — even with
		// an empty remaining path. (Representing it as a value-only
		// branch would break history independence: the same content
		// would hash differently depending on insertion order.)
		return &shortNode{key: path, val: valueNode(value)}, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, err
		}
		return t.insert(resolved, path, value)
	case *shortNode:
		match := prefixLen(n.key, path)
		if match == len(n.key) {
			rest := path[match:]
			if v, isLeaf := n.val.(valueNode); isLeaf {
				if len(rest) == 0 {
					c := n.copy()
					c.val = valueNode(value)
					return c, nil
				}
				// Split the leaf: its value moves to a branch value slot.
				branch := &branchNode{value: []byte(v)}
				child, err := t.insert(nil, rest[1:], value)
				if err != nil {
					return nil, err
				}
				branch.children[rest[0]] = child
				if len(n.key) == 0 {
					return branch, nil
				}
				return &shortNode{key: n.key, val: branch}, nil
			}
			child, err := t.insert(n.val, rest, value)
			if err != nil {
				return nil, err
			}
			c := n.copy()
			c.val = child
			return c, nil
		}
		// Paths diverge inside n.key: make a branch at the divergence.
		branch := &branchNode{}
		// Remainder of the existing short node.
		existingRest := n.key[match:]
		if len(existingRest) == 1 && !isLeafNode(n.val) {
			branch.children[existingRest[0]] = n.val
		} else if isLeafNode(n.val) && len(existingRest) == 1 {
			branch.children[existingRest[0]] = &shortNode{key: nil, val: n.val}
		} else {
			branch.children[existingRest[0]] = &shortNode{key: existingRest[1:], val: n.val}
		}
		// New value.
		newRest := path[match:]
		if len(newRest) == 0 {
			branch.value = value
		} else {
			child, err := t.insert(nil, newRest[1:], value)
			if err != nil {
				return nil, err
			}
			branch.children[newRest[0]] = child
		}
		if match == 0 {
			return branch, nil
		}
		return &shortNode{key: path[:match], val: branch}, nil
	case *branchNode:
		c := n.copy()
		if len(path) == 0 {
			c.value = value
			return c, nil
		}
		child, err := t.insert(n.children[path[0]], path[1:], value)
		if err != nil {
			return nil, err
		}
		c.children[path[0]] = child
		return c, nil
	default:
		return nil, fmt.Errorf("mpt: insert into %T", n)
	}
}

func isLeafNode(n node) bool {
	_, ok := n.(valueNode)
	return ok
}

// Delete removes key; deleting an absent key is a no-op.
func (t *refTrie) Delete(key []byte) error {
	newRoot, _, err := t.remove(t.root, keyToNibbles(key))
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

// remove returns the replacement node and whether anything changed.
func (t *refTrie) remove(n node, path []byte) (node, bool, error) {
	switch n := n.(type) {
	case nil:
		return nil, false, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, false, err
		}
		return t.remove(resolved, path)
	case *shortNode:
		if len(path) < len(n.key) || !bytes.Equal(n.key, path[:len(n.key)]) {
			return n, false, nil
		}
		rest := path[len(n.key):]
		if v, isLeaf := n.val.(valueNode); isLeaf {
			_ = v
			if len(rest) == 0 {
				return nil, true, nil
			}
			return n, false, nil
		}
		child, changed, err := t.remove(n.val, rest)
		if err != nil || !changed {
			return n, changed, err
		}
		return t.collapseShort(n.key, child)
	case *branchNode:
		c := n.copy()
		if len(path) == 0 {
			if n.value == nil {
				return n, false, nil
			}
			c.value = nil
			return t.collapseBranch(c)
		}
		child, changed, err := t.remove(n.children[path[0]], path[1:])
		if err != nil || !changed {
			return n, changed, err
		}
		c.children[path[0]] = child
		return t.collapseBranch(c)
	default:
		return nil, false, fmt.Errorf("mpt: remove from %T", n)
	}
}

// collapseShort re-attaches a (possibly collapsed) child under a prefix.
func (t *refTrie) collapseShort(prefix []byte, child node) (node, bool, error) {
	switch child := child.(type) {
	case nil:
		return nil, true, nil
	case *shortNode:
		merged := &shortNode{key: append(append([]byte(nil), prefix...), child.key...), val: child.val}
		return merged, true, nil
	default:
		return &shortNode{key: prefix, val: child}, true, nil
	}
}

// collapseBranch simplifies a branch that may have dropped to one child or
// value-only after a removal.
func (t *refTrie) collapseBranch(n *branchNode) (node, bool, error) {
	liveIdx := -1
	liveCount := 0
	for i, c := range n.children {
		if c != nil {
			liveIdx = i
			liveCount++
		}
	}
	switch {
	case liveCount == 0 && n.value == nil:
		return nil, true, nil
	case liveCount == 0:
		// Value-only branch collapses to an empty-key leaf (canonical
		// form; see insert).
		return &shortNode{key: nil, val: valueNode(n.value)}, true, nil
	case liveCount == 1 && n.value == nil:
		// Merge the lone child upward.
		child, err := t.resolve(n.children[liveIdx])
		if err != nil {
			return nil, false, err
		}
		switch child := child.(type) {
		case *shortNode:
			merged := &shortNode{
				key: append([]byte{byte(liveIdx)}, child.key...),
				val: child.val,
			}
			return merged, true, nil
		default:
			return &shortNode{key: []byte{byte(liveIdx)}, val: child}, true, nil
		}
	default:
		return n, true, nil
	}
}

// RootHash computes (and caches) the current root hash, buffering freshly
// encoded nodes for the next Commit. An empty trie has EmptyRoot.
func (t *refTrie) RootHash() types.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	return hashNodeRef(t.root, func(h types.Hash, enc []byte) {
		t.dirty[h] = enc
	})
}

// Commit hashes the trie and persists every node reachable from new
// insertions into the store atomically, returning the root hash.
func (t *refTrie) Commit() (types.Hash, error) {
	root := t.RootHash()
	if len(t.dirty) == 0 {
		return root, nil
	}
	batch := &kvstore.Batch{}
	// Sorted node order: the store state would be identical either way
	// (nodes are keyed by hash), but map order would make the WAL byte
	// stream differ per process — sorted commits keep replica WALs
	// diffable and torn-log replays reproducible (found by nezha-vet).
	hashes := make([]types.Hash, 0, len(t.dirty))
	for h := range t.dirty {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return bytes.Compare(hashes[i][:], hashes[j][:]) < 0 })
	for _, h := range hashes {
		batch.Put(h[:], t.dirty[h])
	}
	if err := t.store.Apply(batch); err != nil {
		return types.Hash{}, fmt.Errorf("mpt: commit: %w", err)
	}
	t.dirty = make(map[types.Hash][]byte)
	return root, nil
}
