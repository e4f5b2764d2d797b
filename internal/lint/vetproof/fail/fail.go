// Package fail is a stub standing in for internal/fail: lockorder knows a
// failpoint site by the package path's last segment and the function name.
package fail

// Name is a failpoint site name.
type Name string

// Hit is a site-shaped no-op.
func Hit(Name) error { return nil }
