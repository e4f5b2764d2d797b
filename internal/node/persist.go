package node

import (
	"encoding/binary"
	"fmt"

	"github.com/nezha-dag/nezha/internal/fail"
	"github.com/nezha-dag/nezha/internal/journal"
	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/rlp"
	"github.com/nezha-dag/nezha/internal/types"
)

// Node persistence: the chain metadata a restarted node needs — processed
// epoch watermark, per-epoch state roots, and the canonical blocks — lives
// in the same key-value store as the state trie, under string-prefixed keys
// (trie nodes are keyed by exactly 32 raw bytes; these keys have different
// lengths, so the namespaces cannot collide).
//
// On New(), a node finding persisted metadata restores its ledger by
// replaying the stored canonical blocks (parents first), re-finalizes its
// watermark, and reopens the state at the last committed root — the
// restart story LevelDB gives the paper's prototype.

var (
	metaKey        = []byte("nezha/meta/v1")
	blockKeyPrefix = []byte("nezha/blk/") // + epoch(8B BE) + chain(4B BE)
)

func blockKey(epoch uint64, chain uint32) []byte {
	k := make([]byte, 0, len(blockKeyPrefix)+12)
	k = append(k, blockKeyPrefix...)
	k = binary.BigEndian.AppendUint64(k, epoch)
	k = binary.BigEndian.AppendUint32(k, chain)
	return k
}

// persistEpochLocked stores the epoch's canonical blocks and the updated
// metadata in one atomic batch. The meta record goes LAST into the batch:
// it is the commit point, so a crash that tears the batch mid-WAL replays
// blocks without the watermark — the epoch simply re-persists on the next
// run — never a watermark pointing at missing blocks.
func (n *Node) persistEpochLocked(e uint64, blocks []*types.Block) error {
	// Failpoints bracketing the durability write: "node/persist" fires
	// before anything is built (crash = nothing stored), and
	// "node/persist-done" after the batch is durable (crash = fully
	// stored, the restarted node must land on the NEW watermark). The
	// mid-write cases live in kvstore's own failpoints.
	if err := fail.HitTag(fail.NodePersist, n.id); err != nil {
		return fmt.Errorf("node: persist epoch %d: %w", e, err)
	}
	batch := &kvstore.Batch{}
	for _, b := range blocks {
		batch.Put(blockKey(e, b.Header.ChainID), types.EncodeBlock(b))
	}
	batch.Put(metaKey, n.encodeMetaLocked())
	if err := n.store.Apply(batch); err != nil {
		return fmt.Errorf("node: persist epoch %d: %w", e, err)
	}
	if err := fail.HitTag(fail.NodePersistDone, n.id); err != nil {
		return fmt.Errorf("node: persist epoch %d: %w", e, err)
	}
	return nil
}

// encodeMetaLocked serializes nextEpoch and the roots history.
func (n *Node) encodeMetaLocked() []byte {
	items := []rlp.Item{rlp.Uint(n.nextEpoch)}
	// Roots in ascending epoch order for determinism.
	for e := uint64(0); e < n.nextEpoch; e++ {
		root, ok := n.roots[e]
		if !ok {
			continue
		}
		items = append(items, rlp.List(rlp.Uint(e), rlp.String(root[:])))
	}
	return rlp.Encode(rlp.List(items...))
}

// restoreFromStore loads persisted metadata and blocks; returns false when
// the store holds no prior node state.
func (n *Node) restoreFromStore() (bool, error) {
	raw, found, err := n.store.Get(metaKey)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	// The restore failpoint fires only on an actual restore (metadata
	// found), so the crash-point sweep can kill a node mid-recovery without
	// perturbing fresh starts.
	if err := fail.HitTag(fail.NodeRestore, n.id); err != nil {
		return false, fmt.Errorf("node: restore: %w", err)
	}
	item, err := rlp.Decode(raw)
	if err != nil || item.K != rlp.KindList || len(item.List) < 1 {
		return false, fmt.Errorf("node: corrupt metadata: %v", err)
	}
	next, err := rlp.DecodeUint(item.List[0].Str)
	if err != nil {
		return false, fmt.Errorf("node: corrupt metadata epoch: %w", err)
	}
	roots := map[uint64]types.Hash{}
	for _, entry := range item.List[1:] {
		if entry.K != rlp.KindList || len(entry.List) != 2 {
			return false, fmt.Errorf("node: corrupt root entry")
		}
		e, err := rlp.DecodeUint(entry.List[0].Str)
		if err != nil {
			return false, err
		}
		if len(entry.List[1].Str) != types.HashLen {
			return false, fmt.Errorf("node: corrupt root hash")
		}
		var root types.Hash
		copy(root[:], entry.List[1].Str)
		roots[e] = root
	}

	// Replay persisted canonical blocks, epoch by epoch (parents first).
	// The full Add path cannot run here — a block's committed tips may
	// include fork losers that were never persisted — so the ledger
	// trusts the derived fields it validated before persisting.
	var blocks []*types.Block
	for e := uint64(1); e < next; e++ {
		for c := uint32(0); c < uint32(n.ledger.Chains()); c++ {
			raw, found, err := n.store.Get(blockKey(e, c))
			if err != nil {
				return false, err
			}
			if !found {
				return false, fmt.Errorf("node: missing persisted block epoch %d chain %d", e, c)
			}
			b, err := types.DecodeBlock(raw)
			if err != nil {
				return false, fmt.Errorf("node: decode persisted block: %w", err)
			}
			blocks = append(blocks, b)
		}
	}
	if err := n.ledger.Restore(blocks, next-1); err != nil {
		return false, fmt.Errorf("node: replay persisted blocks: %w", err)
	}
	n.nextEpoch = next
	n.setRootsLocked(roots)
	if err := n.auditRecovery(blocks); err != nil {
		return false, err
	}
	return true, nil
}

// auditRecovery is the post-restart self-audit: before a restored node
// accepts any work it cross-checks what restoreFromStore rebuilt — the
// watermark against the persisted roots, the replayed ledger heights, and
// the re-derived assembly composition of every restored epoch — and
// refuses to start on any inconsistency. A node that rejoins with state
// subtly different from what it persisted poisons the cluster silently
// (the seed-3 lesson; DESIGN.md §15), so recovery fails loudly instead.
//
// blocks is the restored canonical sequence: epoch-major ascending from 1,
// chain-ascending within each epoch, exactly one block per (epoch, chain).
func (n *Node) auditRecovery(blocks []*types.Block) error {
	last := n.nextEpoch - 1
	for e := uint64(0); e <= last; e++ {
		if _, ok := n.roots[e]; !ok {
			return fmt.Errorf("node: recovery audit: watermark %d but no persisted root for epoch %d", last, e)
		}
	}
	chains := n.ledger.Chains()
	for c := 0; c < chains; c++ {
		if h := n.ledger.Height(uint32(c)); h < last {
			return fmt.Errorf("node: recovery audit: chain %d replayed to height %d, below watermark %d", c, h, last)
		}
	}
	if want := int(last) * chains; len(blocks) != want {
		return fmt.Errorf("node: recovery audit: restored %d canonical blocks, want %d (%d epochs x %d chains)", len(blocks), want, last, chains)
	}
	if !journal.Enabled() {
		return nil
	}
	// Re-derive each restored epoch's assembly digests. Where the
	// in-process ring still holds that epoch's pre-crash
	// node/epoch-assembly event (harness restarts share the recorder), the
	// replayed composition must match it byte-for-byte: a mismatch means
	// post-restart re-assembly is not identical to the never-crashed path —
	// the exact bug class behind the seed-3 divergence.
	prior := map[uint64][2]uint64{}
	for _, ev := range n.jr.Snapshot() {
		if ev.Kind != journal.NodeEpochAssembly {
			continue
		}
		var bd, td uint64
		for i := 0; i < int(ev.NumFields); i++ {
			switch ev.Fields[i].Key {
			case "bdigest":
				bd = ev.Fields[i].Val
			case "tdigest":
				td = ev.Fields[i].Val
			}
		}
		prior[ev.Epoch] = [2]uint64{bd, td}
	}
	const prime = 1099511628211
	bfold, tfold := uint64(14695981039346656037), uint64(14695981039346656037)
	for e := uint64(1); e <= last; e++ {
		// Take the epoch's blocks through the ledger's own ordering (OHIE
		// rank order), not the chain-ascending order they were loaded in:
		// the live pipeline assembles epochs via EpochBlocks, so this also
		// proves the persisted ranks reproduce the pre-crash canonical
		// order.
		group, ok := n.ledger.EpochBlocks(e)
		if !ok {
			return fmt.Errorf("node: recovery audit: restored ledger cannot serve epoch %d below watermark %d", e, last)
		}
		bd, td := AssemblyDigests(group)
		if p, ok := prior[e]; ok && (p[0] != bd || p[1] != td) {
			return fmt.Errorf("node: recovery audit: epoch %d re-assembly digests (%#x, %#x) differ from pre-restart assembly (%#x, %#x)",
				e, bd, td, p[0], p[1])
		}
		bfold = (bfold ^ bd) * prime
		tfold = (tfold ^ td) * prime
	}
	root := n.roots[last]
	n.jr.Emit(journal.NodeRecoveryAudit, last,
		journal.F("epochs", last),
		journal.F("bfold", bfold),
		journal.F("tfold", tfold),
		journal.F("root", journal.FoldBytes(root[:])))
	return nil
}
