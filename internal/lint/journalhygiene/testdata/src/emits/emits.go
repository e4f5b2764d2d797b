// Package emits is a production-shaped consumer of the journal stub: event
// kinds must be registered constants.
package emits

import "journal"

var kinds = []journal.Kind{journal.Registered, journal.Other}

func emits(r *journal.Recorder, dyn string) {
	r.Emit(journal.Registered, 1)                  // registered constant: fine
	r.Emit("pkg/registered", 1, journal.F("k", 2)) // literal equal to a registered value: fine
	r.Emit("pkg/unknown", 1)                       // want `unregistered journal kind "pkg/unknown"`
	r.Emit(kinds[0], 1)                            // typed journal.Kind expression: construction sites are checked
	r.Emit(journal.Kind(dyn), 1)                   // want `journal.Kind conversion from a non-constant`
	k := journal.Kind("pkg/also-unknown")          // want `unregistered journal kind "pkg/also-unknown"`
	_ = k
	_ = journal.Deterministic(journal.Kind("pkg/other")) // query with a registered conversion: fine
}
