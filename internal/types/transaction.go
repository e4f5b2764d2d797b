package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// TxID identifies a transaction within one epoch. IDs are assigned after the
// epoch's block set is fixed: blocks are visited in the DAG's deterministic
// total order and transactions are numbered consecutively, so every node
// assigns identical IDs. The paper's ordering rules ("determined according
// to their subscripts", §IV-C) break ties by this id.
type TxID uint64

// Transaction is a signed state-transition request. Payload is the calldata
// handed to the execution engine (for contract calls: a 4-byte selector
// followed by arguments); for plain value transfers Payload is empty and
// Value is moved from From to To.
type Transaction struct {
	// ID is the epoch-local identifier. It is not part of the signed,
	// hashed content: it is assigned when the transaction's block obtains
	// its position in the epoch order.
	ID TxID

	From    Address
	To      Address
	Nonce   uint64
	Value   uint64
	Gas     uint64
	Payload []byte

	// Sig is the transaction signature: the signer's 32-byte Ed25519
	// public key followed by the 64-byte signature over SigningContent
	// (internal/crypto signs and verifies). Neither Hash nor a block's
	// TxRoot covers it. The concurrency-control benchmarks skip signing to
	// isolate the phases the paper measures.
	Sig []byte

	hash *Hash // memoized content hash

	// sigOK is the signature verdict: zero, or the sigDigest of the bytes
	// a caller verified. Plain words moved with sync/atomic functions: a
	// transaction is shared between goroutines and also copied by value,
	// which vet's copylocks forbids for the atomic types.
	sigOK [4]uint32
}

// SigningContent returns the canonical byte encoding of the transaction
// fields covered by the hash and signature.
func (t *Transaction) SigningContent() []byte {
	return t.appendSigningContent(make([]byte, 0, 2*AddressLen+3*8+len(t.Payload)))
}

func (t *Transaction) appendSigningContent(buf []byte) []byte {
	buf = append(buf, t.From[:]...)
	buf = append(buf, t.To[:]...)
	buf = binary.BigEndian.AppendUint64(buf, t.Nonce)
	buf = binary.BigEndian.AppendUint64(buf, t.Value)
	buf = binary.BigEndian.AppendUint64(buf, t.Gas)
	buf = append(buf, t.Payload...)
	return buf
}

// Hash returns the content hash of the transaction, memoizing the result.
// The hash covers everything except ID and Sig.
func (t *Transaction) Hash() Hash {
	if t.hash != nil {
		return *t.hash
	}
	var stack [256]byte // SmallBank calls fit; a longer payload spills to the heap
	h := HashBytes(t.appendSigningContent(stack[:0]))
	t.hash = &h
	return h
}

// DetachedCopy returns a private copy of the transaction numbered id, for a
// reader working beside the goroutines that own t (the node's look-ahead
// run). It is field-wise on purpose: it neither reads nor carries t.ID,
// which every epoch composition rewrites on the shared object, and it
// leaves out the signature verdict, whose words only sync/atomic may touch.
// Payload, Sig and the memoized hash are shared, none of them written once
// the transaction is in a ledger.
func (t *Transaction) DetachedCopy(id TxID) Transaction {
	return Transaction{
		ID: id, From: t.From, To: t.To, Nonce: t.Nonce, Value: t.Value, Gas: t.Gas,
		Payload: t.Payload, Sig: t.Sig, hash: t.hash,
	}
}

// sigDigest folds exactly the bytes a signature check reads — the signing
// content, Sig, and Sig's length, which keeps the split between the two
// unambiguous — into 128 bits of SHA-256. Hash cannot stand in: it leaves
// Sig out. The first word is never zero, so zero words mean "no verdict".
func (t *Transaction) sigDigest() (d [4]uint32) {
	var stack [256]byte // SmallBank calls fit; a longer payload spills to the heap
	buf := append(t.appendSigningContent(stack[:0]), t.Sig...)
	sum := sha256.Sum256(binary.BigEndian.AppendUint64(buf, uint64(len(t.Sig))))
	for i := range d {
		d[i] = binary.BigEndian.Uint32(sum[4*i:])
	}
	d[0] |= 1
	return d
}

// SigVerified reports whether a positive signature verdict for exactly the
// current signed content and signature bytes is attached. A verdict copied
// along with the struct stops matching once any of those bytes change;
// decoded transactions start without one.
func (t *Transaction) SigVerified() bool {
	for i, w := range t.sigDigest() {
		if atomic.LoadUint32(&t.sigOK[i]) != w {
			return false
		}
	}
	return true
}

// MarkSigVerified attaches the verdict; only a caller that has just
// verified the signature may (crypto.VerifyTxOnce). Racing markers store
// the same words, and a half-stored verdict reads as none.
func (t *Transaction) MarkSigVerified() {
	for i, w := range t.sigDigest() {
		atomic.StoreUint32(&t.sigOK[i], w)
	}
}

// String implements fmt.Stringer.
func (t *Transaction) String() string {
	return fmt.Sprintf("tx#%d %s->%s nonce=%d value=%d", t.ID, t.From.Hex()[:8], t.To.Hex()[:8], t.Nonce, t.Value)
}

// ReadEntry records one read performed during speculative execution: the
// state key and the value observed in the epoch snapshot.
type ReadEntry struct {
	Key   Key
	Value []byte
}

// WriteEntry records one write performed during speculative execution: the
// state key and the value the transaction intends to install.
type WriteEntry struct {
	Key   Key
	Value []byte
}

// SimResult is the outcome of speculatively executing one transaction
// against the epoch's state snapshot (the "concurrent execution phase" of
// §III-B). Reads and Writes are deduplicated per key and sorted by key so
// that downstream graph construction is deterministic.
type SimResult struct {
	Tx      *Transaction
	Reads   []ReadEntry
	Writes  []WriteEntry
	GasUsed uint64
	// Err is non-nil when the simulation itself failed (out of gas,
	// explicit revert). Failed simulations never enter concurrency
	// control; the node records them as execution aborts.
	Err error
}

// ReadKeys returns the read set RS(T) as keys only.
func (r *SimResult) ReadKeys() []Key {
	keys := make([]Key, len(r.Reads))
	for i, e := range r.Reads {
		keys[i] = e.Key
	}
	return keys
}

// WriteKeys returns the write set WS(T) as keys only.
func (r *SimResult) WriteKeys() []Key {
	keys := make([]Key, len(r.Writes))
	for i, e := range r.Writes {
		keys[i] = e.Key
	}
	return keys
}

// ReadsKey reports whether the transaction read the given key.
func (r *SimResult) ReadsKey(k Key) bool {
	for _, e := range r.Reads {
		if e.Key == k {
			return true
		}
	}
	return false
}

// WritesKey reports whether the transaction wrote the given key.
func (r *SimResult) WritesKey(k Key) bool {
	for _, e := range r.Writes {
		if e.Key == k {
			return true
		}
	}
	return false
}
