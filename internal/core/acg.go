// Package core implements Nezha, the paper's primary contribution: an
// address-based conflict graph (ACG, §IV-B) plus a hierarchical sorting
// algorithm (HS, §IV-C) that together turn the speculative read/write sets
// of one epoch's transactions into a total commit order with intra-group
// concurrency, aborting only unserializable transactions.
//
// The pipeline is:
//
//	BuildACG            O(u·N): map every read/write unit onto its address
//	RankAddresses       Algorithm 1: optimized topological sort of address deps
//	sorter.run          Algorithm 2 per address, in rank order (+ reordering, §IV-D)
//	safetySweep         conservative final pass enforcing serializability
//
// The stages run one after another on the caller's goroutine and are
// strictly deterministic: addresses are ordered by key bytes ("subscript"
// order in the paper), transactions by epoch-local id.
package core

import (
	"slices"
	"sync"

	"github.com/nezha-dag/nezha/internal/slab"
	"github.com/nezha-dag/nezha/internal/types"
)

// AddressSet is RW_j of the paper: the ordered read and write units mapped
// onto one address. Read units conceptually precede write units ("we put all
// read units in front of write units in advance on each address", §IV-B), so
// the two groups are stored separately; within each group transactions are
// listed by ascending id.
type AddressSet struct {
	Key    types.Key
	Reads  []types.TxID
	Writes []types.TxID
}

// ACG is the address-based conflict graph (Definition 4): one vertex per
// accessed address, holding that address's read/write set, and a directed
// edge A_i → A_j whenever some transaction writes A_i and reads A_j
// (Definition 3: A_i ⇢ A_j, "A_i is dependent on A_j").
type ACG struct {
	// Addrs holds the address vertices sorted by key bytes; the position
	// of an address in this slice is its vertex id in Deps and its
	// "subscript" for every deterministic tie-break.
	Addrs []AddressSet
	// Deps is the address-dependency graph over Addrs indices.
	Deps Deps

	// sims is the dense transaction lookup: sims[id] is the simulation
	// result of epoch-local transaction id (nil for gaps). Epoch-local ids
	// are assigned consecutively from 0 (types.NewEpoch), so a slice beats
	// a map on every hot sorter lookup.
	sims []*types.SimResult

	// unitAddr interns every unit's address to its vertex id, once, so no
	// later phase hashes a key: transaction id's units are
	// unitAddr[unitOff[id]:unitOff[id+1]], its len(Reads) read units first,
	// each group in the simulation result's own order.
	unitAddr []int32
	unitOff  []int32
	// addrOff[j] is where address j's units start in the one arena the
	// Reads/Writes slices of all addresses are carved from (reads, then
	// writes); the sorter sizes its per-address scratch by it.
	addrOff []int32
	arena   []types.TxID

	// order, perm, nReads and next are construction scratch, kept with
	// everything else for the next build into the same graph.
	order, perm, nReads, next []int32
}

// BuildACG constructs the ACG from one epoch's simulation results in
// O(u·N) time (u = average units per transaction): each transaction's units
// are appended to their address sets, and one dependency edge is recorded
// per (written address, read address) pair of the same transaction.
//
// sims must be sorted by ascending transaction id; BuildACG preserves that
// order inside every address set, which is what makes write-unit ordering
// ("determined according to their subscripts") fall out for free.
// Transaction ids must be epoch-local (consecutive from 0, as types.NewEpoch
// assigns them): the graph indexes transactions densely by id.
func BuildACG(sims []*types.SimResult) *ACG {
	kx := keyIndexes.Get().(*keyIndex)
	defer keyIndexes.Put(kx)
	acg := new(ACG)
	acg.build(sims, kx)
	return acg
}

// build is BuildACG into acg, reusing every array acg already holds, with
// kx numbering the keys; it leaves kx empty again.
func (acg *ACG) build(sims []*types.SimResult, kx *keyIndex) {
	n := denseSimLen(sims)
	acg.sims = slab.Reuse(acg.sims, n)
	acg.unitOff = slab.Reuse(acg.unitOff, n+1)
	// Unit offsets per transaction; gaps in the id space own no units.
	for _, sim := range sims {
		acg.sims[sim.Tx.ID] = sim
		acg.unitOff[sim.Tx.ID+1] = int32(len(sim.Reads) + len(sim.Writes))
	}
	for id := 0; id < n; id++ {
		acg.unitOff[id+1] += acg.unitOff[id]
	}
	acg.unitAddr = slab.Reuse(acg.unitAddr, int(acg.unitOff[n]))

	// Pass 1: number every accessed key in first-occurrence order and
	// record each unit under that provisional number — the only time a
	// key is hashed.
	if kx.index == nil {
		kx.index = make(map[types.Key]int32)
	}
	keys := kx.keys
	defer func() {
		clear(kx.index)
		kx.keys = keys[:0]
	}()
	u := 0
	intern := func(k types.Key) {
		p, ok := kx.index[k]
		if !ok {
			p = int32(len(keys))
			kx.index[k] = p
			keys = append(keys, k)
		}
		acg.unitAddr[u] = p
		u++
	}
	for _, sim := range sims {
		for _, r := range sim.Reads {
			intern(r.Key)
		}
		for _, w := range sim.Writes {
			intern(w.Key)
		}
	}

	// Vertices are numbered in key order, which gives each address its
	// deterministic subscript; the units follow.
	order := slab.Reuse(acg.order, len(keys))
	for p := range order {
		order[p] = int32(p)
	}
	slices.SortFunc(order, func(p, q int32) int { return keys[p].Compare(keys[q]) })
	perm := slab.Reuse(acg.perm, len(keys))
	acg.order, acg.perm = order, perm
	acg.Addrs = slab.Reuse(acg.Addrs, len(keys))
	for v, p := range order {
		perm[p] = int32(v)
		acg.Addrs[v].Key = keys[p]
	}
	for i, p := range acg.unitAddr {
		acg.unitAddr[i] = perm[p]
	}

	// Pass 2: count every address's units, and every address's outgoing
	// dependencies (write address → read address of the same transaction;
	// same-address read+write pairs add no edge, cf. T5 in the paper's
	// Fig. 4) with repeats. Carve the Reads and Writes of all addresses
	// out of one arena and their edges out of another, each list empty
	// with exactly its final capacity.
	v := len(keys)
	nReads := slab.Reuse(acg.nReads, v)
	acg.nReads = nReads
	acg.addrOff = slab.Reuse(acg.addrOff, v+1)
	d := &acg.Deps
	d.off, d.in = slab.Reuse(d.off, v+1), slab.Reuse(d.in, v)
	for _, sim := range sims {
		reads, writes := acg.units(sim.Tx.ID)
		for _, j := range reads {
			nReads[j]++
		}
		for _, i := range writes {
			acg.addrOff[i+1]++
			for _, j := range reads {
				if i != j {
					d.off[i+1]++
				}
			}
		}
	}
	for j := 0; j < v; j++ {
		acg.addrOff[j+1] += acg.addrOff[j] + nReads[j]
		d.off[j+1] += d.off[j]
	}
	arena := slab.Reuse(acg.arena, int(acg.addrOff[v]))
	acg.arena = arena
	d.adj = slab.Reuse(d.adj, int(d.off[v]))
	next := append(acg.next[:0], d.off[:v]...)
	acg.next = next
	for j := 0; j < v; j++ {
		lo, mid, hi := acg.addrOff[j], acg.addrOff[j]+nReads[j], acg.addrOff[j+1]
		acg.Addrs[j].Reads, acg.Addrs[j].Writes = arena[lo:lo:mid], arena[mid:mid:hi]
	}

	// Pass 3: fill the lists in place — ascending id order leaves each in
	// ascending id order — then keep each address's first edge to every
	// successor.
	for _, sim := range sims {
		id := sim.Tx.ID
		reads, writes := acg.units(id)
		for _, j := range reads {
			acg.Addrs[j].Reads = append(acg.Addrs[j].Reads, id)
		}
		for _, i := range writes {
			acg.Addrs[i].Writes = append(acg.Addrs[i].Writes, id)
			for _, j := range reads {
				if i != j {
					d.adj[next[i]] = j
					next[i]++
				}
			}
		}
	}
	d.dedupe(nReads)
}

// keyIndex is the graph construction's key numbering. Its map and key list
// are the graph's largest transients, so they are kept for the next build:
// a Scheduler keeps one per working state, BuildACG borrows one from
// keyIndexes.
type keyIndex struct {
	index map[types.Key]int32
	keys  []types.Key
}

var keyIndexes = sync.Pool{New: func() any { return &keyIndex{index: make(map[types.Key]int32)} }}

// Deps is the address-dependency graph, frozen in compressed sparse row
// form: vertex u's successors are adj[off[u]:off[u+1]], each listed once, in
// the order BuildACG first met the edge.
type Deps struct {
	off, adj, in []int32
}

// dedupe compacts every vertex's successor list to first occurrences,
// stamping each successor seen with the vertex's id + 1 in stamp (one int32
// per vertex), and counts the in-degrees.
func (d *Deps) dedupe(stamp []int32) {
	clear(stamp)
	n := int32(0)
	for u := range d.in {
		lo, hi := d.off[u], d.off[u+1]
		d.off[u] = n
		for _, j := range d.adj[lo:hi] {
			if stamp[j] != int32(u)+1 {
				stamp[j] = int32(u) + 1
				d.adj[n] = j
				d.in[j]++
				n++
			}
		}
	}
	d.off[len(d.in)] = n
	d.adj = d.adj[:n]
}

// N returns the number of vertices.
func (d *Deps) N() int { return len(d.in) }

// Out returns u's successors. The slice is owned by the graph.
func (d *Deps) Out(u int) []int32 { return d.adj[d.off[u]:d.off[u+1]] }

// OutDegree returns the number of u's successors.
func (d *Deps) OutDegree(u int) int { return int(d.off[u+1] - d.off[u]) }

// InDegree returns the number of u's predecessors.
func (d *Deps) InDegree(u int) int { return int(d.in[u]) }

// EdgeCount returns the number of edges.
func (d *Deps) EdgeCount() int { return len(d.adj) }

// units returns the vertex ids of a transaction's read units and of its
// write units.
func (a *ACG) units(id types.TxID) (reads, writes []int32) {
	lo, hi := a.unitOff[id], a.unitOff[id+1]
	mid := lo
	if lo < hi { // a gap in the id space has no simulation result
		mid += int32(len(a.sims[id].Reads))
	}
	return a.unitAddr[lo:mid], a.unitAddr[mid:hi]
}

// NumAddresses returns the number of accessed addresses (vertices).
func (a *ACG) NumAddresses() int { return len(a.Addrs) }

// NumUnits returns the total number of read/write units mapped into the
// graph, the size measure behind the paper's O(u·N) construction bound.
func (a *ACG) NumUnits() int { return len(a.unitAddr) }

// Sim returns the simulation result of a transaction id, or nil when the id
// is not part of the epoch.
func (a *ACG) Sim(id types.TxID) *types.SimResult {
	if int(id) >= len(a.sims) {
		return nil
	}
	return a.sims[id]
}

// denseSimLen returns the dense lookup size for one epoch's simulation
// results: max id + 1. sims are sorted by ascending id, so the last entry
// carries the maximum.
func denseSimLen(sims []*types.SimResult) int {
	if len(sims) == 0 {
		return 0
	}
	return int(sims[len(sims)-1].Tx.ID) + 1
}
