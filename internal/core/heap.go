package core

// lazyHeap is a binary heap whose entries record the key they were filed
// under, with less's minimum on top. Both users — rank division's
// cycle-blocked vertices and the safety sweep's victim candidates — have
// keys that drift while an entry waits, and both repair that only at the
// top: an entry whose key got worse is re-filed with fixTop, one that was
// superseded by a fresher entry is dropped with pop. A drifted entry deeper
// down costs nothing until it surfaces, which is what keeps a key change
// O(1) instead of a sift.
type lazyHeap[E any] struct {
	a    []E
	less func(a, b E) bool
}

// init establishes heap order over h.a in O(len(h.a)).
func (h *lazyHeap[E]) init() {
	for i := len(h.a)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *lazyHeap[E]) push(e E) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// pop removes the top entry, h.a[0].
func (h *lazyHeap[E]) pop() {
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	h.down(0)
}

// fixTop restores heap order after the caller rewrote h.a[0].
func (h *lazyHeap[E]) fixTop() { h.down(0) }

func (h *lazyHeap[E]) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h.a) {
			return
		}
		if r := l + 1; r < len(h.a) && h.less(h.a[r], h.a[l]) {
			l = r
		}
		if !h.less(h.a[l], h.a[i]) {
			return
		}
		h.a[i], h.a[l] = h.a[l], h.a[i]
		i = l
	}
}
