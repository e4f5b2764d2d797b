// Package hits is a production-shaped consumer of the fail stub: site names
// must be registered constants and arming helpers are off limits.
package hits

import "fail"

var sites = []fail.Name{fail.Registered, fail.Other}

func hits(dyn string) {
	_ = fail.Hit(fail.Registered)         // registered constant: fine
	_ = fail.Hit("pkg/registered")        // literal equal to a registered value: fine
	_ = fail.Hit("pkg/unknown")           // want `unregistered failpoint name "pkg/unknown"`
	_ = fail.HitTag(sites[0], "tag")      // typed fail.Name expression: construction sites are checked
	_ = fail.Hit(fail.Name(dyn))          // want `fail.Name conversion from a non-constant`
	name := fail.Name("pkg/also-unknown") // want `unregistered failpoint name "pkg/also-unknown"`
	_ = name
	_ = fail.Drop(fail.Other, "peer") // registered constant: fine
}

func arms() {
	fail.Enable(fail.Registered, fail.Spec{}) // want `armed-only helper fail\.Enable`
	fail.Reset()                              // want `armed-only helper fail\.Reset`
}
