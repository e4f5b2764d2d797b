package core

// Conflict-closure clustering: the unit of sort-phase parallelism.
//
// Hierarchical sorting mutates shared state keyed by transaction (seqOf,
// aborted) and by address (used, maxAssigned). Sorting address j reads and
// writes exactly the state of the transactions on j and of every address
// those transactions touch — so two addresses can be sorted concurrently,
// with a result identical to any sequential order, iff no transaction
// footprint connects them, even transitively. Rank membership alone is NOT
// enough: two same-rank addresses with no dependency edge between them can
// still both carry units of one transaction, or feed sequence numbers into
// one shared later-ranked address, and fanning them out would diverge from
// the sequential reference.
//
// conflictClusters therefore computes the finest partition of the address
// vertices such that every transaction's footprint (all addresses it reads
// or writes) lies inside one cluster. ACG dependency edges always connect
// addresses of one transaction, so they are intra-cluster by construction,
// and each cluster's slice of the flat rank order is a valid rank order for
// that cluster in isolation. Clusters touch pairwise-disjoint transaction
// and address state, so running them on separate goroutines — each
// processing its addresses in rank order — reproduces the sequential
// schedule byte for byte.

// conflictClusters groups the flat rank order into conflict-closure
// clusters via union-find. Each cluster lists its addresses in rank order;
// clusters are ordered by the rank position of their first address, and the
// result is independent of goroutine scheduling (it is pure).
func conflictClusters(acg *ACG, ranks []int) [][]int {
	n := len(acg.Addrs)
	if n == 0 {
		return nil
	}
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	for id := range acg.sims {
		units := acg.unitAddr[acg.unitOff[id]:acg.unitOff[id+1]]
		for _, j := range units {
			union(units[0], j)
		}
	}

	// Count, then fill: clusters are numbered by first appearance in rank
	// order and carved from one arena.
	clusterOf := make([]int32, n) // root vertex -> 1+cluster index
	var sizes []int
	for _, j := range ranks {
		root := find(int32(j))
		if clusterOf[root] == 0 {
			sizes = append(sizes, 0)
			clusterOf[root] = int32(len(sizes))
		}
		sizes[clusterOf[root]-1]++
	}
	arena := make([]int, 0, n)
	clusters := make([][]int, len(sizes))
	for c, size := range sizes {
		clusters[c] = arena[len(arena) : len(arena) : len(arena)+size]
		arena = arena[:len(arena)+size]
	}
	for _, j := range ranks {
		c := clusterOf[find(int32(j))] - 1
		clusters[c] = append(clusters[c], j)
	}
	return clusters
}

// maxClusterLen returns the size of the largest cluster.
func maxClusterLen(clusters [][]int) int {
	max := 0
	for _, c := range clusters {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}
