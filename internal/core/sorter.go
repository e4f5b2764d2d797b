package core

import (
	"cmp"
	"slices"

	"github.com/nezha-dag/nezha/internal/slab"
	"github.com/nezha-dag/nezha/internal/types"
)

// initialSeq is the first sequence number handed out; 0 is reserved as the
// "unassigned" sentinel (§IV-C uses an abstract s; any base works as long as
// every node uses the same one).
const initialSeq types.Seq = 1

// sorter carries the mutable state of hierarchical sorting across the
// addresses of one epoch. All of it — per-transaction state, per-address
// state and the scratch of every pass — is held in dense slices indexed by
// epoch-local id or by vertex id, which reset keeps from one epoch to the
// next: maps, then per-call arrays, dominated the scheduler's allocation
// profile.
type sorter struct {
	acg     *ACG
	reorder bool
	// fault is the deliberately injected scheduler bug (FaultNone in
	// production); see fault.go for why the sorter carries it.
	fault Fault

	// seqOf[id] is the sequence number of transaction id. Invariant: 0
	// means "not yet sorted" while the per-address passes are running;
	// after finish() returns, every non-aborted transaction carries a
	// nonzero number (transactions with units are assigned by
	// sortAddress on their first address, stateless transactions get
	// initialSeq in finish()), so 0 never leaks into a schedule.
	seqOf   []types.Seq
	aborted []bool
	// used[j] is a bitset over the sequence numbers carried by a unit on
	// address j ("while writeSeq is assigned", Algorithm 2 line 31): two
	// writes on one address must never share a number. Every address
	// starts with one word carved from a shared array — enough for the
	// numbers below 64, all a low-contention epoch hands out — and grows
	// a copy on demand, carved from the spill chunk.
	used [][]uint64
	// maxAssigned[j] is the highest sequence number present on address j,
	// consulted by the reordering enhancement (§IV-D: "find the maximum
	// assigned sequence number on A_j and A_j+1").
	maxAssigned []types.Seq
	// readAt[id] == j+1 marks transaction id as a live reader of the
	// address j being sorted, bumpedAt[id] == j+1 as re-sequenced by the
	// line-17 bump there. An address is sorted once, so its stamp never
	// recurs and the marks need no clearing.
	readAt, bumpedAt []int32
	// rescued counts transactions the §IV-D reordering re-sequenced
	// instead of aborting.
	rescued int

	// Safety-sweep scratch. live mirrors the ACG's unit arena: address j
	// parks its live readers and writers, sorted, at the front of its
	// reads' and its writes' range, and liveEnd[2j], liveEnd[2j+1] mark
	// where the two stop. pairs[id] counts the uncovered violating pairs
	// touching id (see safetySweep).
	live    []types.TxID
	liveEnd []int32
	pairs   []int32

	// scratch backs readAt, bumpedAt, pairs and liveEnd; words backs every
	// address's first used word, spill the bitsets that outgrow it; sweep
	// backs the safety sweep's buckets.
	scratch      []int32
	words, spill []uint64
	sweep        []int32
}

func newSorter(acg *ACG, reorder bool, fault Fault) *sorter {
	s := new(sorter)
	s.reset(acg, reorder, fault)
	return s
}

// reset readies s for sorting acg, reusing the arrays a previous epoch's
// sort left: every one is zeroed, the stamps included — a stamp of the last
// epoch would read as this one's.
func (s *sorter) reset(acg *ACG, reorder bool, fault Fault) {
	txs, addrs := len(acg.sims), len(acg.Addrs)
	s.acg, s.reorder, s.fault, s.rescued = acg, reorder, fault, 0
	s.seqOf = slab.Reuse(s.seqOf, txs)
	s.aborted = slab.Reuse(s.aborted, txs)
	s.used = slab.Reuse(s.used, addrs)
	s.maxAssigned = slab.Reuse(s.maxAssigned, addrs)
	s.scratch = slab.Reuse(s.scratch, 3*txs+2*addrs)
	s.readAt, s.bumpedAt, s.pairs = s.scratch[:txs], s.scratch[txs:2*txs], s.scratch[2*txs:3*txs]
	s.liveEnd = s.scratch[3*txs:]
	s.live = slab.Reuse(s.live, len(acg.unitAddr))
	s.words = slab.Reuse(s.words, addrs)
	s.spill = s.spill[:0]
	for j := range s.used {
		s.used[j] = s.words[j : j+1 : j+1]
	}
}

// assign gives tx the sequence number seq and propagates it to every
// address the transaction touches, keeping used/maxAssigned accurate. On
// reassignment the old number stays marked used — stale marks only make
// later writes skip a number, which is harmless and keeps this O(u).
func (s *sorter) assign(id types.TxID, seq types.Seq) {
	s.seqOf[id] = seq
	word, bit := int(seq>>6), uint64(1)<<(seq&63)
	for _, j := range s.acg.unitAddr[s.acg.unitOff[id]:s.acg.unitOff[id+1]] {
		u := s.used[j]
		if word >= len(u) {
			if word >= cap(u) {
				u = append(slab.Carve(&s.spill, max(word+1, 2*len(u))), u...)
			}
			u = u[:word+1] // the words this uncovers are zero
			s.used[j] = u
		}
		u[word] |= bit
		if seq > s.maxAssigned[j] {
			s.maxAssigned[j] = seq
		}
	}
}

// isUsed reports whether some unit on address j carries (or carried) seq.
func (s *sorter) isUsed(j int, seq types.Seq) bool {
	u, word := s.used[j], int(seq>>6)
	return word < len(u) && u[word]&(1<<(seq&63)) != 0
}

// abortTx marks the transaction aborted; its units are ignored by every
// address processed afterwards.
func (s *sorter) abortTx(id types.TxID) { s.aborted[id] = true }

// run executes Algorithm 2 on the addresses in rank order.
func (s *sorter) run(ranks []int) {
	for _, j := range ranks {
		s.sortAddress(j)
	}
}

// finish assigns initialSeq to every live transaction the per-address
// passes never saw — the stateless ones, whose empty read and write sets
// put them on no address vertex. They conflict with nothing and commit in
// the first group. After finish, the seqOf invariant holds: every
// non-aborted transaction has a nonzero sequence number.
func (s *sorter) finish() {
	if s.fault == FaultDropStatelessSeq {
		return // injected bug: leak the seq-0 sentinel for stateless txs
	}
	for id, sim := range s.acg.sims {
		if sim == nil || s.aborted[id] || s.seqOf[id] != 0 {
			continue
		}
		s.seqOf[id] = initialSeq
	}
}

// sortAddress is Algorithm 2 (transaction sorting) on one address. Units of
// transactions aborted on earlier addresses no longer constrain anyone, so
// every loop skips them.
func (s *sorter) sortAddress(j int) {
	addr := &s.acg.Addrs[j]
	stamp := int32(j) + 1

	// --- Read phase (lines 3–15) ---
	// maxRead is the read ceiling; 0 = "no read units on this address"
	// (line 25). minSeq/maxRead range over the reads sorted on earlier
	// addresses.
	var minSeq, maxRead types.Seq
	anyRead, unsorted := false, false
	for _, id := range addr.Reads {
		if s.aborted[id] {
			continue
		}
		anyRead = true
		s.readAt[id] = stamp
		q := s.seqOf[id]
		if q == 0 {
			unsorted = true
			continue
		}
		if maxRead == 0 || q < minSeq {
			minSeq = q
		}
		if q > maxRead {
			maxRead = q
		}
	}
	if anyRead && maxRead == 0 {
		// All reads share the initial number: reads never conflict with
		// each other (rule 3 of §IV-C).
		minSeq, maxRead = initialSeq, initialSeq
	}
	if unsorted {
		for _, id := range addr.Reads {
			if !s.aborted[id] && s.seqOf[id] == 0 {
				s.assign(id, minSeq)
			}
		}
	}

	// --- Write phase ---

	// Lines 17–19: a sorted write unit whose read unit sits on the same
	// address must move above every read (the read-before-write rule).
	// The paper's pseudocode handles one such unit; several transactions
	// can read+write the same address, so each gets the next number up,
	// in ascending id order for determinism. The bump applies only when
	// the write actually sits at or below the read ceiling — re-bumping a
	// transaction that is already safely above every read would silently
	// invalidate the numbers it carries on earlier-ranked addresses.
	for _, id := range addr.Writes {
		if s.aborted[id] || s.seqOf[id] == 0 {
			continue
		}
		if s.readAt[id] != stamp || s.seqOf[id] > maxRead {
			continue
		}
		// The new number must clear this address's read ceiling AND every
		// number already present on the other addresses the transaction
		// writes — otherwise the reassignment silently collides with a
		// write sequenced there earlier (a write-write conflict the
		// safety sweep would have to abort).
		target := maxRead + 1
		_, writes := s.acg.units(id)
		for _, w := range writes {
			if m := s.maxAssigned[w]; m >= target {
				target = m + 1
			}
		}
		s.assign(id, target)
		if target > maxRead {
			maxRead = target
		}
		s.bumpedAt[id] = stamp
	}

	// Lines 20–24: any other sorted write below the read ceiling is
	// unserializable — unless the reordering enhancement (§IV-D) can bump
	// it above everything it conflicts with. Only transactions with
	// multiple writes and no reads qualify: their anomaly stems purely
	// from a write-write dependency, which the reorderability theorem
	// [FabricSharp] allows flipping. Bumping a transaction that also
	// reads would drag its read units above writes it observed the
	// snapshot past, converting one abort into several.
	for _, id := range addr.Writes {
		if s.aborted[id] || s.seqOf[id] == 0 || s.bumpedAt[id] == stamp {
			continue
		}
		if s.seqOf[id] >= maxRead {
			continue
		}
		reads, writes := s.acg.units(id)
		if s.reorder && len(writes) >= 2 && len(reads) == 0 {
			var top types.Seq
			for _, w := range writes {
				if m := s.maxAssigned[w]; m > top {
					top = m
				}
			}
			if s.fault == FaultFlipRescue {
				// Injected bug: the §IV-D comparison flipped — take the
				// smaller of the two ceilings, landing the rescued tx at
				// or below units it conflicts with.
				if maxRead < top {
					top = maxRead
				}
			} else if maxRead > top {
				top = maxRead
			}
			s.assign(id, top+1)
			s.rescued++
			continue
		}
		s.abortTx(id)
	}

	// Lines 25–35: hand the remaining (unsorted) writes increasing,
	// previously unused numbers, ascending id order ("determined
	// according to their subscripts", rule 2 of §IV-C).
	writeSeq := initialSeq
	if maxRead > 0 {
		writeSeq = maxRead + 1
	}
	for _, id := range addr.Writes {
		if s.aborted[id] || s.seqOf[id] != 0 {
			continue
		}
		for s.isUsed(j, writeSeq) {
			writeSeq++
		}
		s.assign(id, writeSeq)
	}
}

// safetySweep is a conservative final pass that upgrades the heuristic
// guarantees of Algorithm 2 into strict serializability (DESIGN.md §7):
// on every address, each committed write must carry a strictly larger
// sequence number than every committed read of a *different* transaction,
// and committed writes must carry pairwise-distinct numbers. Cross-address
// reassignments (the line-17 bump and the §IV-D reordering) can violate
// these in rare interleavings.
//
// The sweep aborts a greedy vertex cover of the violating pairs — the same
// flavor of victim selection the CG baseline's cycle removal uses — because
// one reassigned reader frequently conflicts with many writers, and
// aborting the reader alone resolves all of those pairs at once. Aborting
// can only remove constraints, never add them, so the loop terminates with
// every pair covered, deterministically: the victim each round is the
// transaction with the maximum (uncovered pairs, id), a total order, and a
// pair counts once per address and relation it violates. The victims are
// returned in the order chosen. No pair is ever listed: see countPairs and
// abortVictim.
func (s *sorter) safetySweep() []int32 {
	top, txs := s.countPairs(), len(s.pairs)
	if top == 0 {
		return nil
	}
	// Bucket c chains, through next, the transactions filed under count
	// c; 0 ends a chain, so entries are stored as id+1. Counts only fall,
	// so once the cover reaches bucket c nothing can be filed there any
	// more: it is drained in descending id order, and an entry whose count
	// fell since it was filed moves down to its current bucket.
	buf := slab.Reuse(s.sweep, int(top)+1+2*txs)
	s.sweep = buf
	head := buf[:top+1]
	bucket, victims := buf[top+1:top+1], buf[int(top)+1+txs:][:0]
	next := s.bumpedAt // free once Algorithm 2 is done
	for id, c := range s.pairs {
		if c > 0 {
			next[id], head[c] = head[c], int32(id)+1
		}
	}
	for c := top; c > 0; c-- {
		bucket = bucket[:0]
		for e := head[c]; e != 0; e = next[e-1] {
			bucket = append(bucket, e-1)
		}
		slices.Sort(bucket)
		for i := len(bucket) - 1; i >= 0; i-- {
			id := bucket[i]
			switch now := s.pairs[id]; {
			case now == c:
				victims = append(victims, id)
				s.abortVictim(types.TxID(id))
			case now > 0:
				next[id], head[now] = head[now], id+1
			}
		}
	}
	return victims
}

// countPairs sets s.pairs to every transaction's violating-pair count and
// returns the highest. On one address, with the live units sorted by
// sequence number, every violating pair lies inside a run of equal-number
// writers (write-write: all of the run's pairs) or between such a run and
// the readers at or above its number (read-write: all of those pairs except
// a transaction with itself), so a count is a sum of group sizes.
func (s *sorter) countPairs() (top int32) {
	for j := range s.acg.Addrs {
		readers, writers := s.sortLive(j)
		// Walk the writers' runs with r at the first reader at or above
		// the run's number and self at the first reader not below the
		// writer in (sequence, id) order: the writer reads the address
		// iff that reader is itself, and then sits in its own tail.
		r, self := 0, 0
		for i := 0; i < len(writers); {
			q := s.seqOf[writers[i]]
			end := i + 1
			for end < len(writers) && s.seqOf[writers[end]] == q {
				end++
			}
			for r < len(readers) && s.seqOf[readers[r]] < q {
				r++
			}
			for _, w := range writers[i:end] {
				for self < len(readers) && s.bySeq(readers[self], w) < 0 {
					self++
				}
				c := int32(end - i - 1 + len(readers) - r)
				if self < len(readers) && readers[self] == w {
					c -= 2 // itself in its tail, and at or below itself as a reader
				}
				s.pairs[w] += c
			}
			i = end
		}
		// A reader pairs with every writer at or below its number.
		below := 0
		for _, x := range readers {
			for below < len(writers) && s.seqOf[writers[below]] <= s.seqOf[x] {
				below++
			}
			s.pairs[x] += int32(below)
		}
	}
	for _, c := range s.pairs {
		top = max(top, c)
	}
	return top
}

// abortVictim aborts the sweep's victim and walks its groups (see
// countPairs), lowering each live partner's count once per pair.
func (s *sorter) abortVictim(v types.TxID) {
	s.abortTx(v)
	s.pairs[v] = 0
	drop := func(ids []types.TxID) {
		for _, x := range ids {
			if !s.aborted[x] { // v included
				s.pairs[x]--
			}
		}
	}
	q := s.seqOf[v]
	reads, writes := s.acg.units(v)
	for _, j := range reads {
		_, writers := s.liveUnits(int(j))
		drop(writers[:s.seqBound(writers, q+1)])
	}
	for _, j := range writes {
		readers, writers := s.liveUnits(int(j))
		drop(writers[s.seqBound(writers, q):s.seqBound(writers, q+1)])
		drop(readers[s.seqBound(readers, q):])
	}
}

// sortLive parks address j's live readers and writers, each in ascending
// (sequence, id) order, at the front of the address's reads' and writes'
// ranges of s.live, records where they end, and returns them.
func (s *sorter) sortLive(j int) (readers, writers []types.TxID) {
	addr := &s.acg.Addrs[j]
	lo := s.acg.addrOff[j]
	mid := lo + int32(len(addr.Reads))
	if len(addr.Writes) == 0 { // no writer, no pair
		s.liveEnd[2*j], s.liveEnd[2*j+1] = lo, mid
		return nil, nil
	}
	readers = s.liveBySeq(addr.Reads, s.live[lo:lo:mid])
	writers = s.liveBySeq(addr.Writes, s.live[mid:mid:s.acg.addrOff[j+1]])
	s.liveEnd[2*j], s.liveEnd[2*j+1] = lo+int32(len(readers)), mid+int32(len(writers))
	return readers, writers
}

// liveUnits returns the lists sortLive parked for address j.
func (s *sorter) liveUnits(j int) (readers, writers []types.TxID) {
	lo, mid := s.acg.addrOff[j], s.acg.addrOff[j]+int32(len(s.acg.Addrs[j].Reads))
	return s.live[lo:s.liveEnd[2*j]], s.live[mid:s.liveEnd[2*j+1]]
}

// liveBySeq appends the non-aborted ids to buf, which has the room, and
// sorts them in ascending (sequence, id) order.
func (s *sorter) liveBySeq(ids, buf []types.TxID) []types.TxID {
	for _, id := range ids {
		if !s.aborted[id] {
			buf = append(buf, id)
		}
	}
	slices.SortFunc(buf, s.bySeq)
	return buf
}

// bySeq orders transactions by (sequence, id).
func (s *sorter) bySeq(a, b types.TxID) int {
	if c := cmp.Compare(s.seqOf[a], s.seqOf[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// seqBound returns the number of ids, sorted by sequence, numbered below q.
func (s *sorter) seqBound(ids []types.TxID, q types.Seq) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.seqOf[ids[m]] < q {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
