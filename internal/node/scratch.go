package node

import (
	"cmp"
	"slices"
	"time"

	"github.com/nezha-dag/nezha/internal/slab"
	"github.com/nezha-dag/nezha/internal/types"
	"github.com/nezha-dag/nezha/internal/vm"
)

// The epoch scratch ring. Every buffer an epoch threads from composition to
// commit — the dedupe list and its hash set, the look-ahead run's private
// transaction copies, the execution's result slab with its sims and failed
// lists and busy spans, the per-worker arenas the read and write sets are
// carved from (vm.Arena), and the write batch — lives in one of two slots,
// n.scratch[e&1], and the next epoch of the same parity reuses it.
//
// Ownership: slot e&1 is epoch e's from the moment its look-ahead run
// starts (or, when no run is adopted, from the moment validation rejects
// it) until ProcessEpoch(e) has returned and the run's goroutine has
// exited. The run for e+1 starts under e's commit, in the other slot. The
// run for e+2 starts under e+1's commit and takes e's slot: by then
// ProcessEpoch(e) has returned, and the run for e has exited — an adopting
// commit waits for the run to finish, and every other owner that lets go of
// a run (abandonLookahead) waits for its goroutine first. An inline epoch
// takes its slot only after that same wait.
//
// Three things are never recycled:
//   - what ProcessEpoch returns: the Schedule is built fresh by the
//     scheduler, which keeps its own working state on its instance;
//   - the write values: the MVCC version store keeps them by reference
//     (mvcc.CommitEpoch stores WriteEntry.Value), so an arena never
//     rewinds its value slabs, and a reset leaves them alone;
//   - a staged batch until its seal: it is the batch of the slot's own
//     epoch, sealed (or unstaged) before the slot is taken again.
type epochScratch struct {
	seen    map[types.Hash]struct{}
	txs     []*types.Transaction // the dedupe list: ledger objects in epoch order
	own     []types.Transaction  // the look-ahead run's private copies of txs
	ptrs    []*types.Transaction // &own[i]
	results []types.SimResult
	sims    []*types.SimResult
	failed  []types.TxID
	busy    []time.Duration
	arenas  []vm.Arena // one per worker
	tagged  []taggedWrite
	batch   []types.WriteEntry
}

// taggedWrite is one committed write with its transaction's sequence number
// and its position in the epoch's list of writes.
type taggedWrite struct {
	seq types.Seq
	pos int
	types.WriteEntry
}

// takeScratch hands epoch e its slot, reset. Only the slot's owner-to-be
// may call it, by the ownership rule above.
func (n *Node) takeScratch(e uint64) *epochScratch {
	s := &n.scratch[e&1]
	if len(s.arenas) < n.cfg.Workers {
		s.arenas = make([]vm.Arena, n.cfg.Workers)
	}
	for i := range s.arenas {
		s.arenas[i].Reset()
	}
	return s
}

// dedupe is types.DedupeTxs into the slot.
func (s *epochScratch) dedupe(blocks []*types.Block) []*types.Transaction {
	if s.seen == nil {
		s.seen = make(map[types.Hash]struct{})
	}
	clear(s.txs)
	s.txs = types.AppendDedupedTxs(s.txs[:0], s.seen, blocks)
	return s.txs
}

// detach returns private field-wise copies of txs, numbered by position.
func (s *epochScratch) detach(txs []*types.Transaction) []*types.Transaction {
	s.own = slab.Reuse(s.own, len(txs))
	s.ptrs = slab.Reuse(s.ptrs, len(txs))
	for i, tx := range txs {
		s.own[i] = tx.DetachedCopy(types.TxID(i))
		s.ptrs[i] = &s.own[i]
	}
	return s.ptrs
}

// writeBatch is what the commitment phase writes ("applies the write values
// … to an in-memory state", §III-B): every committed transaction's writes,
// sorted by key, then by commit group, then by position, and of each run of
// writes to one cell the last — the latest group's, as applying the groups
// in sequence order would leave it. Transactions inside a group write
// pairwise-distinct keys (scheduler invariant), so two writes of one cell in
// one group are one transaction's, in its own order. The result is in
// ascending key order, the order the state trie's batch descent takes and
// the one that makes every replica hand the trie the same batch. The commit
// stage builds it, or the look-ahead run builds it early to stage it;
// either way it is built once per epoch, into the slot.
func (s *epochScratch) writeBatch(sims []*types.SimResult, sched *types.Schedule) []types.WriteEntry {
	tagged := s.tagged[:0]
	for _, sim := range sims {
		seq, ok := sched.Seqs[sim.Tx.ID]
		if !ok {
			continue
		}
		for _, w := range sim.Writes {
			tagged = append(tagged, taggedWrite{seq, len(tagged), w})
		}
	}
	// The position breaks the ties a stable sort would keep in order, so
	// an unstable sort builds the same batch.
	slices.SortFunc(tagged, func(a, b taggedWrite) int {
		return cmp.Or(a.Key.Compare(b.Key), cmp.Compare(a.seq, b.seq), cmp.Compare(a.pos, b.pos))
	})
	batch := s.batch[:0]
	for i, w := range tagged {
		if i+1 < len(tagged) && tagged[i+1].Key == w.Key {
			continue // a later write to the cell wins
		}
		batch = append(batch, w.WriteEntry)
	}
	clear(tagged) // do not pin the values
	s.tagged, s.batch = tagged[:0], batch
	return batch
}
