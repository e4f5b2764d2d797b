// Package core sits at a path lint.IsCritical matches, so dettaint holds
// it to the zero-hop rule: Keys is the planted unordered map range.
package core

// Keys returns m's keys in iteration order, and never sorts them.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
