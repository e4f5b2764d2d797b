package types

import (
	"encoding/binary"
	"fmt"
)

// BlockHeader carries the metadata of a block in the OHIE-style
// parallel-chain DAG [Yu et al., S&P'20], the substrate the paper evaluates
// on (§V).
//
// OHIE's defining trick is that a miner does not choose which chain its
// block extends: the proof-of-work preimage commits (via TipsRoot) to the
// tips of ALL k chains, and once a nonce is found, the block lands on chain
// `hash mod k`, extending the committed tip of that chain. The fields below
// therefore split into two groups:
//
//   - PoW fields, covered by the block hash: TipsRoot, TxRoot, StateRoot,
//     Epoch, Time, Miner, Nonce.
//   - Derived fields, recomputed and verified by every validator from the
//     hash and the committed tips: ChainID, Height, ParentHash, Rank,
//     NextRank. They ride along as a convenience cache and are NOT hashed.
//
// Rank and NextRank implement OHIE's total ordering: a block's Rank equals
// its parent's NextRank, and NextRank = max(Rank+1, highest NextRank among
// the committed tips). Confirmed blocks across all chains are ordered by
// (Rank, ChainID).
//
// StateRoot is the state root after the previous epoch (deferred execution,
// Fig. 2(b)): consensus nodes do not execute transactions before proposing,
// so the root they commit to is the one already agreed upon.
type BlockHeader struct {
	// PoW fields.
	TipsRoot  Hash    // commitment to the k chain tips observed by the miner
	TxRoot    Hash    // Merkle root over the transaction hashes
	StateRoot Hash    // state root of the previous epoch (validation phase)
	Epoch     uint64  // epoch the block belongs to
	Time      uint64  // miner-reported unix milliseconds
	Miner     Address // block proposer
	Nonce     uint64  // PoW nonce

	// Derived fields (not hashed; verified against the PoW hash and tips).
	ChainID    uint32 // hash-assigned parallel chain
	Height     uint64 // position within its own chain
	ParentHash Hash   // the committed tip of chain ChainID
	Rank       uint64 // OHIE rank (position in the total order)
	NextRank   uint64 // OHIE next-rank hint for children
}

// PowContent returns the canonical preimage of the block hash: the PoW
// fields only.
func (h *BlockHeader) PowContent() []byte {
	buf := make([]byte, 0, 3*HashLen+3*8+AddressLen+8)
	buf = append(buf, h.TipsRoot[:]...)
	buf = append(buf, h.TxRoot[:]...)
	buf = append(buf, h.StateRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, h.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, h.Time)
	buf = append(buf, h.Miner[:]...)
	buf = binary.BigEndian.AppendUint64(buf, h.Nonce)
	return buf
}

// Hash returns the block hash: SHA-256 over the PoW content.
func (h *BlockHeader) Hash() Hash { return HashBytes(h.PowContent()) }

// TipsCommitment hashes an ordered tip list into the TipsRoot commitment.
func TipsCommitment(tips []Hash) Hash {
	buf := make([]byte, 0, len(tips)*HashLen)
	for _, t := range tips {
		buf = append(buf, t[:]...)
	}
	return HashBytes(buf)
}

// Block is a header, the tip list behind its TipsRoot, and the transaction
// payload.
type Block struct {
	Header BlockHeader
	// Tips lists the tip of every chain (index = chain id) the miner
	// observed; Header.TipsRoot must equal TipsCommitment(Tips).
	Tips []Hash
	Txs  []*Transaction

	hash *Hash // memoized header hash
}

// Hash returns the memoized block hash.
func (b *Block) Hash() Hash {
	if b.hash != nil {
		return *b.hash
	}
	h := b.Header.Hash()
	b.hash = &h
	return h
}

// InvalidateHash drops the memoized hash; miners call it while searching
// for a nonce.
func (b *Block) InvalidateHash() { b.hash = nil }

// AssignedChain returns the chain the block's hash assigns it to, given k
// parallel chains (OHIE: the trailing bits / modulus of the hash).
func (b *Block) AssignedChain(k int) uint32 {
	h := b.Hash()
	return uint32(binary.BigEndian.Uint64(h[HashLen-8:]) % uint64(k))
}

// ComputeTxRoot returns the Merkle root over the block's transaction
// hashes. An empty block has the zero root. Odd levels duplicate the last
// node, the conventional Bitcoin-style construction. Every level is folded
// into the front of the leaves, which sit in a stack array for blocks of up
// to stackLeaves transactions and in one heap slice above that.
func ComputeTxRoot(txs []*Transaction) Hash {
	if len(txs) == 0 {
		return ZeroHash
	}
	var stack [stackLeaves]Hash
	level := stack[:0]
	if len(txs) > len(stack) {
		level = make([]Hash, 0, len(txs))
	}
	level = appendLeaves(level, txs)
	for len(level) > 1 {
		level = foldLevel(level)
	}
	return level[0]
}

// stackLeaves is the largest block whose Merkle fold needs no heap: 8 KiB
// of stack, above the benchmark's and the examples' block sizes.
const stackLeaves = 256

func txLeaves(txs []*Transaction) []Hash {
	return appendLeaves(make([]Hash, 0, len(txs)), txs)
}

func appendLeaves(leaves []Hash, txs []*Transaction) []Hash {
	for _, tx := range txs {
		leaves = append(leaves, tx.Hash())
	}
	return leaves
}

// foldLevel overwrites the front half of a Merkle level with its parents and
// returns that half; an odd level pairs its last node with itself. Parent i
// is written after children 2i and 2i+1 are read, and never over a child
// still to be read.
func foldLevel(level []Hash) []Hash {
	n := len(level)
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		right := min(2*i+1, n-1)
		level[i] = HashConcat(level[2*i][:], level[right][:])
	}
	return level[:half]
}

// String implements fmt.Stringer.
func (b *Block) String() string {
	return fmt.Sprintf("block chain=%d height=%d rank=%d txs=%d hash=%s",
		b.Header.ChainID, b.Header.Height, b.Header.Rank, len(b.Txs), b.Hash().Short())
}

// Epoch is the unit of state transition in the paper's workflow (§III-B):
// the set of concurrent blocks B_e confirmed for epoch e, in the DAG's
// deterministic total order. Transactions across the epoch's blocks are
// flattened and numbered with consecutive TxIDs in that order; duplicate
// transactions (same content hash appearing in several concurrent blocks)
// keep only their first occurrence.
type Epoch struct {
	Number uint64
	Blocks []*Block // in (Rank, ChainID) order
	Txs    []*Transaction
}

// NewEpoch flattens the given ordered block set into an epoch, assigning
// TxIDs and dropping duplicate transactions ("picks transactions that first
// appear in all verified blocks", §III-B).
func NewEpoch(number uint64, blocks []*Block) *Epoch {
	return NewEpochFrom(number, blocks, DedupeTxs(blocks))
}

// NewEpochFrom is NewEpoch for a caller that already holds DedupeTxs(blocks):
// it numbers txs in that order and hashes nothing a second time.
func NewEpochFrom(number uint64, blocks []*Block, txs []*Transaction) *Epoch {
	for i, tx := range txs {
		tx.ID = TxID(i)
	}
	return &Epoch{Number: number, Blocks: blocks, Txs: txs}
}

// DedupeTxs flattens the ordered block set into the epoch's transaction
// order: block by block, a transaction whose content hash appeared earlier
// dropped. It writes nothing the blocks reach — not Transaction.ID, and not
// the memoized hash of a transaction that came through dag.Ledger.Add, which
// memoizes every hash under the ledger's lock — so it may run beside
// goroutines that are numbering the same objects for another epoch.
func DedupeTxs(blocks []*Block) []*Transaction {
	total := 0
	for _, b := range blocks {
		total += len(b.Txs)
	}
	return AppendDedupedTxs(make([]*Transaction, 0, total), make(map[Hash]struct{}, total), blocks)
}

// AppendDedupedTxs is DedupeTxs appending to dst, with seen (cleared first)
// as the set of hashes met so far: a caller that keeps both from one epoch
// to the next dedupes without allocating.
func AppendDedupedTxs(dst []*Transaction, seen map[Hash]struct{}, blocks []*Block) []*Transaction {
	clear(seen)
	for _, b := range blocks {
		for _, tx := range b.Txs {
			h := tx.Hash()
			if _, dup := seen[h]; dup {
				continue
			}
			seen[h] = struct{}{}
			dst = append(dst, tx)
		}
	}
	return dst
}

// BlockConcurrency returns ω_e, the number of concurrent blocks in the
// epoch.
func (e *Epoch) BlockConcurrency() int { return len(e.Blocks) }
