package core

// maxHeap is a binary max-heap of packed keys: its user folds the whole
// ordering, tie-break included, into one uint64, so a comparison is one
// integer compare. Rank division's cycle-blocked vertices have keys that
// drift while an entry waits, and it repairs that only at the top: an entry
// whose key got worse is rewritten and re-filed with down(0), one that was
// superseded by a fresher entry is dropped with pop. A drifted entry deeper
// down costs nothing until it surfaces, which is what keeps a key change
// O(1) instead of a sift.
type maxHeap []uint64

// init establishes heap order in O(len(h)).
func (h maxHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *maxHeap) push(k uint64) {
	*h = append(*h, k)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[i] <= a[p] {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

// pop removes and returns the top key.
func (h *maxHeap) pop() uint64 {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	*h = a[:last]
	h.down(0)
	return top
}

// down restores heap order below i after h[i] fell.
func (h maxHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] > h[l] {
			l = r
		}
		if h[l] <= h[i] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}
