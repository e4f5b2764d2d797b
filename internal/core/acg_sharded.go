package core

import (
	"sync"

	"github.com/nezha-dag/nezha/internal/types"
)

// BuildACGSharded is the key-sharded parallel twin of BuildACG: the epoch's
// transactions are partitioned into `shards` contiguous ranges, each range
// interns its keys and collects its dependency edges with worker-local
// maps, and the partial results merge deterministically in key order. The
// resulting ACG is identical to the sequential build — same vertex
// subscripts, same unit order inside every address set, same dependency
// edges in the same insertion order:
//
//   - Subscripts: the merged key set is the union of the shard key sets,
//     sorted by key bytes — exactly the sequential numbering.
//   - Unit order: both builders fill the address sets from the interned
//     units with the same sequential count-then-fill pass.
//   - Edge order: each shard keeps its edges in local first-occurrence
//     order; replaying shards in order through AddEdge (which drops
//     duplicates) inserts every edge at its global first occurrence.
//
// BuildACG remains the reference implementation; the determinism tests
// assert structural equality between the two at several shard counts.
func BuildACGSharded(sims []*types.SimResult, shards int) *ACG {
	if shards > len(sims) {
		shards = len(sims)
	}
	if shards <= 1 {
		return BuildACG(sims)
	}

	bounds := shardBounds(len(sims), shards)
	acg := newACG(sims)

	// Pass 1 (parallel): every shard numbers the keys its transactions
	// touch in a local map and records its units under those local
	// numbers. Shards own disjoint id ranges, so their slots in sims and
	// unitAddr are disjoint too.
	localKeys := make([][]types.Key, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			part := sims[bounds[s]:bounds[s+1]]
			local := make(map[types.Key]int, 2*len(part))
			keys := make([]types.Key, 0, 2*len(part))
			n := int(acg.unitOff[part[0].Tx.ID])
			for _, sim := range part {
				acg.sims[sim.Tx.ID] = sim
				n = internUnits(sim, local, &keys, acg.unitAddr, n)
			}
			localKeys[s] = keys
		}(s)
	}
	wg.Wait()

	// Merge 1 (sequential): union the shard key sets, remembering each
	// local number's place in the union, then number the vertices.
	keys := make([]types.Key, 0, 2*len(sims))
	toUnion := make([][]int32, shards)
	for s, lk := range localKeys {
		toUnion[s] = make([]int32, len(lk))
		for p, k := range lk {
			u, ok := acg.index[k]
			if !ok {
				u = len(keys)
				acg.index[k] = u
				keys = append(keys, k)
			}
			toUnion[s][p] = int32(u)
		}
	}
	perm := acg.numberVertices(keys)

	// Pass 2 (parallel): shards rewrite their units to vertex ids and
	// record dependency edges, deduplicated locally, in the same nested
	// order the sequential pass uses (per transaction: per write, per
	// read).
	parts := make([]acgShardPart, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			part := sims[bounds[s]:bounds[s+1]]
			lo, hi := acg.unitOff[part[0].Tx.ID], acg.unitOff[part[len(part)-1].Tx.ID+1]
			for i, p := range acg.unitAddr[lo:hi] {
				acg.unitAddr[int(lo)+i] = perm[toUnion[s][p]]
			}
			parts[s].edgeSeen = make(map[int64]struct{})
			for _, sim := range part {
				reads, writes := acg.units(sim.Tx.ID)
				for _, i := range writes {
					for _, j := range reads {
						if i != j {
							parts[s].addEdge(int(i), int(j), len(keys))
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()

	// Merge 2 (sequential): fill the address sets, then replay the shard
	// edge lists in shard order; AddEdge coalesces cross-shard duplicates.
	acg.fillAddressSets(sims)
	for s := range parts {
		for _, e := range parts[s].edges {
			acg.Deps.AddEdge(e[0], e[1])
		}
	}
	return acg
}

// acgShardPart is one shard's worker-local edge list.
type acgShardPart struct {
	edges    [][2]int
	edgeSeen map[int64]struct{}
}

// addEdge records the edge u→v once per shard, preserving first-occurrence
// order. n is the vertex count, used to pack the pair into one map key.
func (p *acgShardPart) addEdge(u, v, n int) {
	packed := int64(u)*int64(n) + int64(v)
	if _, dup := p.edgeSeen[packed]; dup {
		return
	}
	p.edgeSeen[packed] = struct{}{}
	p.edges = append(p.edges, [2]int{u, v})
}

// shardBounds splits n items into `shards` contiguous, near-equal ranges;
// bounds[s] : bounds[s+1] is shard s.
func shardBounds(n, shards int) []int {
	bounds := make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		bounds[s] = s * n / shards
	}
	return bounds
}
