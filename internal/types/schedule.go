package types

import (
	"cmp"
	"fmt"
	"slices"
)

// Seq is a Lamport-style sequence number assigned by concurrency control
// (§IV-C). Transactions sharing a Seq have no conflicts between them and may
// commit concurrently; groups commit in increasing Seq. Seq 0 is the
// "unassigned" sentinel — assigned numbers start at 1.
type Seq uint64

// AbortReason explains why concurrency control aborted a transaction.
type AbortReason int

// Abort reasons. Enums start at 1 so the zero value is invalid, per the
// style guide.
const (
	// AbortUnserializable marks a transaction whose write carried a
	// sequence number below a read it must follow (Algorithm 2, lines
	// 20–24) or that sat on an unbreakable cycle in the CG baseline.
	AbortUnserializable AbortReason = iota + 1
	// AbortCycle marks a CG-baseline victim removed to break conflict
	// cycles (Johnson's algorithm + greedy victim selection).
	AbortCycle
	// AbortExecution marks a transaction whose speculative execution
	// itself failed (revert / out of gas); it never reached scheduling.
	AbortExecution
)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case AbortUnserializable:
		return "unserializable"
	case AbortCycle:
		return "cycle"
	case AbortExecution:
		return "execution"
	default:
		return fmt.Sprintf("AbortReason(%d)", int(r))
	}
}

// Abort records one aborted transaction and the reason.
type Abort struct {
	ID     TxID
	Reason AbortReason
}

// Schedule is the output of the concurrency-control phase: a total commit
// order with a certain degree of concurrency (the paper's main deliverable).
type Schedule struct {
	// Seqs maps each committed transaction id to its sequence number.
	Seqs map[TxID]Seq
	// Aborted lists aborted transactions in ascending id order.
	Aborted []Abort
}

// NewSchedule returns an empty schedule ready to be filled.
func NewSchedule() *Schedule {
	return &Schedule{Seqs: make(map[TxID]Seq)}
}

// Commit records a committed transaction at the given sequence number.
func (s *Schedule) Commit(id TxID, seq Seq) { s.Seqs[id] = seq }

// Abort records an aborted transaction.
func (s *Schedule) Abort(id TxID, reason AbortReason) {
	delete(s.Seqs, id)
	s.Aborted = append(s.Aborted, Abort{ID: id, Reason: reason})
}

// IsCommitted reports whether the transaction survived scheduling.
func (s *Schedule) IsCommitted(id TxID) bool {
	_, ok := s.Seqs[id]
	return ok
}

// CommittedCount returns the number of committed transactions.
func (s *Schedule) CommittedCount() int { return len(s.Seqs) }

// AbortedCount returns the number of aborted transactions.
func (s *Schedule) AbortedCount() int { return len(s.Aborted) }

// AbortRate returns aborted/(aborted+committed), the paper's Fig. 11 metric.
func (s *Schedule) AbortRate() float64 {
	total := len(s.Seqs) + len(s.Aborted)
	if total == 0 {
		return 0
	}
	return float64(len(s.Aborted)) / float64(total)
}

// Groups returns the commit groups in increasing sequence order; each group
// holds the ids of transactions that commit concurrently, sorted by id. The
// result is deterministic.
func (s *Schedule) Groups() [][]TxID {
	bySeq := make(map[Seq][]TxID, len(s.Seqs))
	for id, seq := range s.Seqs {
		bySeq[seq] = append(bySeq[seq], id)
	}
	seqs := make([]Seq, 0, len(bySeq))
	for seq := range bySeq {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	groups := make([][]TxID, len(seqs))
	for i, seq := range seqs {
		ids := bySeq[seq]
		slices.Sort(ids)
		groups[i] = ids
	}
	return groups
}

// SerialOrder returns every committed transaction id in (Seq, TxID) order —
// the serial execution the concurrent commit is equivalent to.
func (s *Schedule) SerialOrder() []TxID {
	ids := make([]TxID, 0, len(s.Seqs))
	for id := range s.Seqs {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b TxID) int {
		return cmp.Or(cmp.Compare(s.Seqs[a], s.Seqs[b]), cmp.Compare(a, b))
	})
	return ids
}

// NormalizeAborts sorts the abort list by id; schedulers call it before
// returning so that schedules compare byte-for-byte across nodes.
func (s *Schedule) NormalizeAborts() {
	slices.SortFunc(s.Aborted, func(a, b Abort) int { return cmp.Compare(a.ID, b.ID) })
}

// Equal reports whether two schedules are identical (same commits with the
// same sequence numbers and the same abort set). Used by determinism tests
// and by multi-node agreement checks.
func (s *Schedule) Equal(o *Schedule) bool {
	if len(s.Seqs) != len(o.Seqs) || len(s.Aborted) != len(o.Aborted) {
		return false
	}
	for id, seq := range s.Seqs {
		if o.Seqs[id] != seq {
			return false
		}
	}
	for i, a := range s.Aborted {
		if o.Aborted[i] != a {
			return false
		}
	}
	return true
}
