package core

import (
	"cmp"
	"slices"

	"github.com/nezha-dag/nezha/internal/types"
)

// initialSeq is the first sequence number handed out; 0 is reserved as the
// "unassigned" sentinel (§IV-C uses an abstract s; any base works as long as
// every node uses the same one).
const initialSeq types.Seq = 1

// sorter carries the mutable state of hierarchical sorting across the
// addresses of one epoch. All of it — per-transaction state, per-address
// state and the scratch of every pass — is held in dense slices indexed by
// epoch-local id or by vertex id and allocated once per Schedule: maps
// dominated the scheduler's allocation profile.
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
	// its own copy on demand.
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
	// parks its live readers and writers, sorted, in its own range.
	// incident[id] counts the uncovered violating pairs touching id and
	// adjOff[id] locates id's incidence list (see coverAborts).
	live             []types.TxID
	incident, adjOff []int32
}

func newSorter(acg *ACG, reorder bool, fault Fault) *sorter {
	txs, addrs := len(acg.sims), len(acg.Addrs)
	s := &sorter{
		acg:         acg,
		reorder:     reorder,
		fault:       fault,
		seqOf:       make([]types.Seq, txs),
		aborted:     make([]bool, txs),
		used:        make([][]uint64, addrs),
		maxAssigned: make([]types.Seq, addrs),
	}
	perTx := make([]int32, 4*txs)
	s.readAt, s.bumpedAt = perTx[:txs], perTx[txs:2*txs]
	s.incident, s.adjOff = perTx[2*txs:3*txs], perTx[3*txs:]
	s.live = make([]types.TxID, len(acg.unitAddr))
	words := make([]uint64, addrs)
	for j := range s.used {
		s.used[j] = words[j : j+1 : j+1]
	}
	return s
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
				u = append(make([]uint64, 0, max(word+1, 2*len(u))), u...)
			}
			u = u[:word+1] // make zeroed the words this uncovers
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
// these in rare interleavings. addrs lists every address, in any order.
func (s *sorter) safetySweep(addrs []int) {
	var sw sweeper
	for _, victim := range s.coverAborts(s.collectViolations(addrs, &sw), &sw) {
		s.abortTx(types.TxID(victim))
	}
}

// sweeper is the safety sweep's working memory. Whatever is indexed by
// transaction or address lives in the sorter instead.
type sweeper struct {
	contested  []contested
	pairs      []violation
	adj        []int32     // incidence lists, see coverAborts
	candidates []candidate // the victim heap, see coverAborts
	victims    []int32
}

// candidate is a transaction on at least one violating pair, filed under
// the number of uncovered pairs it had when last looked at.
type candidate struct{ count, id int32 }

// violation is one per-address pair of committed transactions whose
// sequence numbers break a strict-serializability invariant.
type violation struct{ a, b types.TxID }

// contested is an address with at least one violating pair: its live
// readers and its live writers, both in ascending (sequence, id) order.
type contested struct{ readers, writers []types.TxID }

// collectViolations gathers the violating pairs on the given addresses,
// count-then-fill: the first pass sorts each address's live units into the
// address's own range of s.live and bounds its pair count, the second
// fills a buffer of that size from the addresses that had any.
func (s *sorter) collectViolations(addrs []int, sw *sweeper) []violation {
	sw.contested = sw.contested[:0]
	bound := 0
	for _, j := range addrs {
		addr := &s.acg.Addrs[j]
		if len(addr.Writes) == 0 {
			continue
		}
		lo := int(s.acg.addrOff[j])
		mid, hi := lo+len(addr.Reads), int(s.acg.addrOff[j+1])
		a := contested{
			readers: s.liveBySeq(addr.Reads, s.live[lo:lo:mid]),
			writers: s.liveBySeq(addr.Writes, s.live[mid:mid:hi]),
		}
		before := bound
		for i := 0; i < len(a.writers); {
			end, tail := s.writeRun(a, i)
			// The bound counts a read+write transaction against itself.
			bound += (end-i)*(end-i-1)/2 + (end-i)*len(tail)
			i = end
		}
		if bound > before {
			sw.contested = append(sw.contested, a)
		}
	}

	pairs := slices.Grow(sw.pairs[:0], bound)
	for _, a := range sw.contested {
		for i := 0; i < len(a.writers); {
			end, tail := s.writeRun(a, i)
			run := a.writers[i:end]
			// Write-write: equal numbers collide. Every pair within an
			// equal-seq run is violating (pairing only neighbors would let
			// a middle-victim cover leave the outer two still colliding).
			for x, w := range run {
				for _, other := range run[x+1:] {
					pairs = append(pairs, violation{w, other})
				}
			}
			// Read-write: a write at or below a different transaction's
			// read must follow it in some serial order — impossible
			// without re-execution, so the pair is violating.
			for _, w := range run {
				for _, r := range tail {
					if r != w {
						pairs = append(pairs, violation{w, r})
					}
				}
			}
			i = end
		}
	}
	sw.pairs = pairs
	return pairs
}

// liveBySeq appends the non-aborted ids to buf, which has the room, and
// sorts them in ascending (sequence, id) order.
func (s *sorter) liveBySeq(ids, buf []types.TxID) []types.TxID {
	for _, id := range ids {
		if !s.aborted[id] {
			buf = append(buf, id)
		}
	}
	slices.SortFunc(buf, func(a, b types.TxID) int {
		if c := cmp.Compare(s.seqOf[a], s.seqOf[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return buf
}

// writeRun returns the end of the run of equal-sequence writers starting at
// a.writers[i], and the readers the whole run conflicts with: readers are
// sorted by sequence, so everything from the first one at or above the
// run's number onward.
func (s *sorter) writeRun(a contested, i int) (end int, tail []types.TxID) {
	q := s.seqOf[a.writers[i]]
	end = i + 1
	for end < len(a.writers) && s.seqOf[a.writers[end]] == q {
		end++
	}
	lo, hi := 0, len(a.readers)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.seqOf[a.readers[mid]] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return end, a.readers[lo:]
}

// coverAborts picks the transactions the sweep aborts: a greedy vertex cover
// of the violating pairs — the same flavor of victim selection the CG
// baseline's cycle removal uses — because one reassigned reader frequently
// conflicts with many writers, and aborting the reader alone resolves all
// of those pairs at once. Aborting can only remove constraints, never add
// them, so the loop terminates with every pair covered, deterministically:
// the victim each round is the transaction with the maximum (uncovered
// pairs, id), a total order. The victims are returned in the order chosen.
//
// Cost is O((txs + pairs)·log txs): the pairs are turned once into
// per-transaction incidence lists (a pair collected twice is listed twice,
// and counts twice) and the candidates sit in a max-heap keyed (count, id).
// A victim only walks its own list, lowering each neighbour's count; the
// neighbour's heap entry is left filed under the old, higher count and
// re-filed when it reaches the top, so the top, once current, is the true
// maximum.
func (s *sorter) coverAborts(pairs []violation, sw *sweeper) []int32 {
	if len(pairs) == 0 {
		return nil
	}
	sw.victims = sw.victims[:0]
	// s.incident is all zero between calls: every pair that raises two
	// counts here lowers the same two when its first end is chosen.
	heap := lazyHeap[candidate]{a: sw.candidates[:0], less: func(a, b candidate) bool {
		if a.count != b.count {
			return a.count > b.count
		}
		return a.id > b.id
	}}
	for _, p := range pairs {
		for _, id := range [2]types.TxID{p.a, p.b} {
			if s.incident[id] == 0 {
				heap.a = append(heap.a, candidate{id: int32(id)})
			}
			s.incident[id]++
		}
	}
	// Lay the lists out back to back, each closed by -1, and fill them
	// from the back, which leaves adjOff[id] at the front of id's list.
	size := 2*len(pairs) + len(heap.a)
	adj := slices.Grow(sw.adj[:0], size)[:size]
	n := int32(0)
	for i := range heap.a {
		c := &heap.a[i]
		c.count = s.incident[c.id]
		n += c.count
		adj[n] = -1
		s.adjOff[c.id] = n
		n++
	}
	for _, p := range pairs {
		s.adjOff[p.a]--
		adj[s.adjOff[p.a]] = int32(p.b)
		s.adjOff[p.b]--
		adj[s.adjOff[p.b]] = int32(p.a)
	}

	heap.init()
	for len(heap.a) > 0 {
		top := &heap.a[0]
		if now := s.incident[top.id]; now < top.count {
			top.count = now
			heap.fixTop()
			continue
		}
		if top.count == 0 {
			break // nothing is filed higher: every pair is covered
		}
		victim := top.id
		heap.pop()
		sw.victims = append(sw.victims, victim)
		// The victim's remaining pairs are the ones whose other end still
		// counts them; an earlier victim's count is already zero.
		s.incident[victim] = 0
		for i := s.adjOff[victim]; adj[i] >= 0; i++ {
			if other := adj[i]; s.incident[other] > 0 {
				s.incident[other]--
			}
		}
	}
	sw.adj, sw.candidates = adj, heap.a
	return sw.victims
}
