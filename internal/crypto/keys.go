// Package crypto provides the account-key layer of the reproduction:
// Ed25519 keypairs derived deterministically from seeds, account addresses
// bound to public keys, and transaction signing/verification.
//
// The paper's prototype inherits secp256k1/Keccak from its Ethereum-derived
// stack; this reproduction substitutes Ed25519 + SHA-256 from the standard
// library (DESIGN.md substitution rules). Everything the system relies on
// is preserved: unforgeable transaction authorization bound to the sender
// address, and deterministic verification at every node.
package crypto

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/nezha-dag/nezha/internal/types"
)

// Signature layout: 32-byte public key followed by the 64-byte Ed25519
// signature. The public key rides along because addresses are one-way
// hashes of it.
const (
	pubKeyLen = ed25519.PublicKeySize
	sigLen    = ed25519.SignatureSize
	// SigBytes is the total length of a transaction signature blob.
	SigBytes = pubKeyLen + sigLen
)

// Verification errors.
var (
	ErrBadSignature = errors.New("crypto: signature verification failed")
	ErrWrongSender  = errors.New("crypto: signer does not own the sender address")
)

// Key is an account keypair.
type Key struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
	addr types.Address
}

// KeyFromSeed derives a keypair from a 32-byte seed. Identical seeds yield
// identical keys on every node — what the deterministic test networks and
// workload generators need.
func KeyFromSeed(seed [32]byte) *Key {
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub := priv.Public().(ed25519.PublicKey)
	return &Key{priv: priv, pub: pub, addr: AddressOfPub(pub)}
}

// KeyForAccount derives the canonical keypair of a numeric account id, the
// mapping the SmallBank workload uses.
func KeyForAccount(n uint64) *Key {
	seed := types.HashConcat([]byte("account-key"), binary.BigEndian.AppendUint64(nil, n))
	return KeyFromSeed(seed)
}

// Address returns the account address owned by the key.
func (k *Key) Address() types.Address { return k.addr }

// AddressOfPub hashes a public key into its account address (first 20 bytes
// of SHA-256, the Ethereum convention modulo the hash function).
func AddressOfPub(pub ed25519.PublicKey) types.Address {
	h := types.HashBytes(pub)
	var a types.Address
	copy(a[:], h[:types.AddressLen])
	return a
}

// SignTx signs the transaction's canonical content and installs the
// signature blob. The transaction's From must already be the signer's
// address (Sign does not overwrite it; mismatches surface at verification).
func (k *Key) SignTx(tx *types.Transaction) {
	sig := ed25519.Sign(k.priv, tx.SigningContent())
	blob := make([]byte, 0, SigBytes)
	blob = append(blob, k.pub...)
	blob = append(blob, sig...)
	tx.Sig = blob
}

// VerifyTx checks that the transaction carries a valid signature from the
// owner of its From address. It is the full check every time; the paths
// that may meet a transaction twice call VerifyTxOnce.
func VerifyTx(tx *types.Transaction) error {
	if len(tx.Sig) != SigBytes {
		return fmt.Errorf("%w: signature blob is %d bytes, want %d", ErrBadSignature, len(tx.Sig), SigBytes)
	}
	pub := ed25519.PublicKey(tx.Sig[:pubKeyLen])
	sig := tx.Sig[pubKeyLen:]
	if AddressOfPub(pub) != tx.From {
		return fmt.Errorf("%w: %s", ErrWrongSender, tx.From)
	}
	if !ed25519.Verify(pub, tx.SigningContent(), sig) {
		return ErrBadSignature
	}
	return nil
}
