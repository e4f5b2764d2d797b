// Package a is the zero-hop corpus: the test appends it to
// lint.CriticalPackages, so every unordered iteration here must be
// flagged unless it feeds a sort or carries an annotation.
package a

import (
	"maps"
	"slices"
	"sort"
)

func plain(m map[string]int) {
	for k := range m { // want `unordered map iteration in determinism-critical package a`
		_ = k
	}
}

func iterator(m map[string]int) {
	for k := range maps.Keys(m) { // want `unordered map iteration`
		_ = k
	}
}

func collected(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collected and sorted below: the blessed idiom
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectedSlices(m map[string]int) []string {
	var keys []string
	for k := range m { // slices.Sort counts too
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func collectedButNotSorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `unordered map iteration`
		keys = append(keys, k)
	}
	return keys
}

func annotated(m map[string]int) int {
	total := 0
	for _, v := range m { //nezha:nondeterminism-ok summing ints is commutative
		total += v
	}
	return total
}

func racySelect(a, b chan int) {
	select { // want `select with 2 communication cases`
	case <-a:
	case <-b:
	}
}

func annotatedSelect(a, b chan int) {
	//nezha:nondeterminism-ok both arms drain into the same commutative sink
	select {
	case <-a:
	case <-b:
	}
}

func timeoutSelect(a chan int) {
	select { // one comm case plus default: no runtime coin-flip
	case <-a:
	default:
	}
}

func sliceRange(xs []int) int {
	total := 0
	for _, v := range xs { // slices iterate in order
		total += v
	}
	return total
}
