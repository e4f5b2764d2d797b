// Package b is the zero-hop negative corpus: the same shapes as package
// a, but b is not in lint.CriticalPackages, so nothing here is flagged.
package b

func plain(m map[string]int) {
	for k := range m {
		_ = k
	}
}

func racySelect(a, b chan int) {
	select {
	case <-a:
	case <-b:
	}
}
