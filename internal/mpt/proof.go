package mpt

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/nezha-dag/nezha/internal/types"
)

// ErrInvalidProof is returned when a Merkle proof fails verification.
var ErrInvalidProof = errors.New("mpt: invalid proof")

// Proof is a Merkle (non-)membership proof: the RLP encodings of the trie
// nodes on the path from the root toward the key. Verification recomputes
// each node's hash, so a proof is self-authenticating against a root.
type Proof struct {
	Nodes [][]byte
}

// Prove collects the proof for key against the current trie contents. The
// same proof object proves membership (value returned by VerifyProof) or
// absence (VerifyProof returns found=false).
func (t *Trie) Prove(key []byte) (*Proof, error) {
	t.RootHash() // a node's encoding names its children by hash
	proof := &Proof{}
	err := t.prove(t.root, keyToNibbles(key), proof)
	if err != nil {
		return nil, err
	}
	return proof, nil
}

func (t *Trie) prove(n node, path []byte, proof *Proof) error {
	switch n := n.(type) {
	case nil:
		return nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return err
		}
		return t.prove(resolved, path, proof)
	case *shortNode:
		proof.Nodes = append(proof.Nodes, t.encoding(n))
		if len(path) < len(n.key) || !bytes.Equal(n.key, path[:len(n.key)]) {
			return nil // divergence proves absence
		}
		if _, isLeaf := n.val.(valueNode); isLeaf {
			return nil
		}
		return t.prove(n.val, path[len(n.key):], proof)
	case *branchNode:
		proof.Nodes = append(proof.Nodes, t.encoding(n))
		if len(path) == 0 {
			return nil
		}
		if n.children[path[0]] == nil {
			return nil // missing child proves absence
		}
		return t.prove(n.children[path[0]], path[1:], proof)
	default:
		return fmt.Errorf("mpt: prove over %T", n)
	}
}

// VerifyProof checks a proof against a trie root and returns the proven
// value for key (found=false proves the key's absence). The proof is not
// trusted: every node encoding must hash to the reference that its parent
// (or the root) commits to.
func VerifyProof(root types.Hash, key []byte, proof *Proof) (value []byte, found bool, err error) {
	path := keyToNibbles(key)
	want := root
	if root == EmptyRoot {
		if len(proof.Nodes) != 0 {
			return nil, false, fmt.Errorf("%w: nodes against an empty root", ErrInvalidProof)
		}
		return nil, false, nil
	}
	for i, enc := range proof.Nodes {
		if types.HashBytes(enc) != want {
			return nil, false, fmt.Errorf("%w: node %d hash mismatch", ErrInvalidProof, i)
		}
		n, err := decodeNode(enc)
		if err != nil {
			return nil, false, fmt.Errorf("%w: node %d: %v", ErrInvalidProof, i, err)
		}
		last := i == len(proof.Nodes)-1
		switch n := n.(type) {
		case *shortNode:
			if len(path) < len(n.key) || !bytes.Equal(n.key, path[:len(n.key)]) {
				if !last {
					return nil, false, fmt.Errorf("%w: divergence before the final node", ErrInvalidProof)
				}
				return nil, false, nil // proven absent
			}
			path = path[len(n.key):]
			if v, isLeaf := n.val.(valueNode); isLeaf {
				if !last {
					return nil, false, fmt.Errorf("%w: leaf before the final node", ErrInvalidProof)
				}
				if len(path) != 0 {
					return nil, false, nil // leaf for a shorter key: absent
				}
				return append([]byte(nil), v...), true, nil
			}
			child, ok := n.val.(hashNode)
			if !ok {
				return nil, false, fmt.Errorf("%w: extension without hash child", ErrInvalidProof)
			}
			want = types.Hash(child)
			if last {
				return nil, false, fmt.Errorf("%w: proof truncated at extension", ErrInvalidProof)
			}
		case *branchNode:
			if len(path) == 0 {
				if !last {
					return nil, false, fmt.Errorf("%w: branch value before the final node", ErrInvalidProof)
				}
				if n.value == nil {
					return nil, false, nil
				}
				return append([]byte(nil), n.value...), true, nil
			}
			child := n.children[path[0]]
			if child == nil {
				if !last {
					return nil, false, fmt.Errorf("%w: missing child before the final node", ErrInvalidProof)
				}
				return nil, false, nil // proven absent
			}
			h, ok := child.(hashNode)
			if !ok {
				return nil, false, fmt.Errorf("%w: inline child in proof", ErrInvalidProof)
			}
			want = types.Hash(h)
			path = path[1:]
			if last {
				return nil, false, fmt.Errorf("%w: proof truncated at branch", ErrInvalidProof)
			}
		default:
			return nil, false, fmt.Errorf("%w: unexpected node kind", ErrInvalidProof)
		}
	}
	return nil, false, fmt.Errorf("%w: empty proof for non-empty root", ErrInvalidProof)
}
