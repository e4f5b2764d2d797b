package analysis

// Fact support, mirroring golang.org/x/tools/go/analysis: an analyzer
// attaches computed information (a Fact) to a types.Object — in this
// repo, always a function — while analyzing the object's own package,
// and reads it back while analyzing a *different* package that calls
// into the first. That is what lets the flow analyzers (dettaint,
// lockorder) compose per-function dataflow summaries across package
// boundaries instead of stopping at every call.
//
// The one real divergence from x/tools: facts here are keyed by a
// canonical object key string, not by types.Object identity. The loader
// type-checks every target package from source but resolves its imports
// through export data, so package A's view of B.F is a *different*
// types.Object than the one B's own pass exported a fact on. The
// canonical key — types.Func.FullName() for functions — is identical on
// both sides, which is the whole trick. Facts are in-memory only (one
// nezha-vet invocation analyzes the whole tree in dependency order, so
// nothing needs to be serialized); cross-package flows are therefore
// only visible when the run's package patterns cover both ends, which is
// why the CI gate runs `./...`.

import (
	"go/types"
	"reflect"
)

// A Fact is analyzer-computed information about an object, exported
// while analyzing the object's package and importable from any later
// pass. Implementations must be pointer types.
type Fact interface {
	// AFact is a marker method: it does nothing, it only marks the type
	// as a Fact (and keeps arbitrary types from sneaking into the store).
	AFact()
}

// factKey identifies one stored fact: the object's canonical key plus
// the concrete fact type (one object may carry facts from several
// analyzers, or several fact types from one).
type factKey struct {
	obj string
	typ reflect.Type
}

// factStore is the per-run fact table, shared by every pass of a Run.
// Runs are sequential (one package, one analyzer at a time), so no lock.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: map[factKey]Fact{}}
}

// ObjectKey returns the canonical cross-package key for an object: for
// functions and methods, types.Func.FullName() (e.g.
// "(*pkg/path.T).M" or "pkg/path.F"), which is stable between the
// source-checked and export-data views of the same function. Generic
// instantiations collapse to their origin. Other objects key by package
// path and name.
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	key := obj.Name()
	if obj.Pkg() != nil {
		key = obj.Pkg().Path() + "." + key
	}
	return key
}

// ExportObjectFact records a fact for obj, overwriting any previous fact
// of the same concrete type. The pass must belong to a Run (standalone
// passes without a fact store drop the export silently).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil {
		return
	}
	p.facts.m[factKey{obj: ObjectKey(obj), typ: reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's concrete type previously
// exported for obj (by any earlier pass, typically the same analyzer on
// an already-analyzed package) into fact, reporting whether one existed.
// fact must be a pointer, as with ExportObjectFact.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil {
		return false
	}
	stored, ok := p.facts.m[factKey{obj: ObjectKey(obj), typ: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
