// Package slab holds the two ways the epoch path reuses memory across
// epochs: a buffer resized in place, and slices carved from a chunk.
package slab

// minChunk is the fewest elements Carve opens a chunk with.
const minChunk = 256

// Reuse returns buf resized to n zero elements, keeping its array when it
// holds n; a new array gets a quarter's headroom, so an epoch a little
// larger than the last does not allocate again.
func Reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Carve returns an empty slice with room for exactly n zero elements (nil
// for none), taken from the end of *chunk. A chunk too short for n is
// replaced by one at least twice as large; the slices already carved keep
// the old one. Rewinding *chunk to [:0] lets its array be carved again.
func Carve[T any](chunk *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(2*cap(c), n, minChunk))
	}
	l := len(c)
	*chunk = c[:l+n]
	clear(c[l : l+n])
	return c[l : l : l+n]
}
