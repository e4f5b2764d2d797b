// Package fail is a hermetic stub of internal/fail for the locksafe
// family's tests: the site functions lockorder keys on, with no behavior.
package fail

type Name string

const Registered Name = "pkg/registered"

func Hit(name Name) error                { return nil }
func HitTag(name Name, tag string) error { return nil }
func Drop(name Name, tag string) bool    { return false }
