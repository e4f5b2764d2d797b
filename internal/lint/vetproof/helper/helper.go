// Package helper is the far end of the planted cross-package flow: Keys
// reports nothing on its own (helper is not determinism-critical and has
// no sink), and the finding exists only because its exported summary
// carries the map order into planted's encoder.
package helper

// Keys returns m's keys in iteration order.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
