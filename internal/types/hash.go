// Package types defines the fundamental data model shared by every
// subsystem of the Nezha reproduction: hashes, account addresses, state
// keys, transactions, blocks, epochs, read/write sets produced by
// speculative execution, and the commit schedules produced by concurrency
// control.
//
// The model is account-based (not UTXO), as required by the paper's system
// model (§III-A): conflicts arise from concurrent reads and writes to the
// same state key.
package types

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// HashLen is the byte length of a Hash.
const HashLen = 32

// Hash is a 32-byte SHA-256 digest. The paper's prototype hashes with
// Keccak-256 (via the EVM); this reproduction substitutes SHA-256 from the
// standard library, which preserves every property the system relies on
// (collision resistance, fixed width).
type Hash [HashLen]byte

// ZeroHash is the all-zero hash, used as the parent of genesis blocks and
// as the "empty" marker throughout.
var ZeroHash Hash

// HashBytes returns the SHA-256 digest of data.
func HashBytes(data []byte) Hash {
	return sha256.Sum256(data)
}

// HashConcat returns the SHA-256 digest of the concatenation of the given
// byte slices. The parts are joined in a stack buffer and hashed in one call:
// every key derivation and Merkle fold in the system is at most 64 bytes, so
// nothing is allocated; a longer input spills to the heap through append.
func HashConcat(parts ...[]byte) Hash {
	var buf [128]byte
	b := buf[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	return sha256.Sum256(b)
}

// Bytes returns the hash as a byte slice.
func (h Hash) Bytes() []byte { return h[:] }

// IsZero reports whether the hash is the zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Hex returns the lowercase hex encoding of the hash.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Short returns the first four bytes of the hash in hex, for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// String implements fmt.Stringer.
func (h Hash) String() string { return "0x" + h.Hex() }

// HashFromHex parses a hex string (with or without a 0x prefix) into a Hash.
func HashFromHex(s string) (Hash, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("types: decode hash hex: %w", err)
	}
	if len(b) != HashLen {
		return h, fmt.Errorf("types: hash must be %d bytes, got %d", HashLen, len(b))
	}
	copy(h[:], b)
	return h, nil
}
