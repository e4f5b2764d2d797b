package types

import (
	"errors"
	"fmt"
)

// Transaction inclusion proofs over a block's TxRoot — the light-client
// primitive every Merkle-root block design implies. A proof carries the
// sibling hashes along the path from a transaction's leaf to the root of
// the duplicate-last binary tree built by ComputeTxRoot.

// ErrInvalidTxProof is returned when an inclusion proof fails verification.
var ErrInvalidTxProof = errors.New("types: invalid transaction inclusion proof")

// TxProof proves that a transaction is included in a block at a given
// position.
type TxProof struct {
	// Index is the transaction's position in the block.
	Index int
	// Siblings are the hashes adjacent to the path, leaf level first.
	Siblings []Hash
}

// ProveTx builds the inclusion proof for the transaction at index in txs.
func ProveTx(txs []*Transaction, index int) (*TxProof, error) {
	if index < 0 || index >= len(txs) {
		return nil, fmt.Errorf("types: tx index %d out of range [0,%d)", index, len(txs))
	}
	level := txLeaves(txs)
	proof := &TxProof{Index: index}
	pos := index
	for len(level) > 1 {
		sibling := min(pos^1, len(level)-1) // the paired node; the last of an odd level pairs with itself
		proof.Siblings = append(proof.Siblings, level[sibling])
		level = foldLevel(level)
		pos /= 2
	}
	return proof, nil
}

// VerifyTxProof checks that a transaction hash sits at proof.Index under
// the given TxRoot.
func VerifyTxProof(root Hash, txHash Hash, proof *TxProof) error {
	if proof == nil || proof.Index < 0 {
		return ErrInvalidTxProof
	}
	h := txHash
	pos := proof.Index
	for _, sibling := range proof.Siblings {
		if pos%2 == 0 {
			h = HashConcat(h[:], sibling[:])
		} else {
			h = HashConcat(sibling[:], h[:])
		}
		pos /= 2
	}
	if pos != 0 {
		return fmt.Errorf("%w: index exceeds tree size", ErrInvalidTxProof)
	}
	if h != root {
		return fmt.Errorf("%w: root mismatch", ErrInvalidTxProof)
	}
	return nil
}
