package analysis

import "testing"

// TestLoad exercises the go list + export-data pipeline against a real
// module package: full type information with zero network access.
func TestLoad(t *testing.T) {
	pkgs, err := Load("", nil, "github.com/nezha-dag/nezha/internal/fail")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "github.com/nezha-dag/nezha/internal/fail" {
		t.Errorf("PkgPath = %q", p.PkgPath)
	}
	if p.Types == nil || p.TypesInfo == nil || len(p.Files) == 0 {
		t.Fatalf("incomplete package: types=%v info=%v files=%d", p.Types, p.TypesInfo, len(p.Files))
	}
	for _, name := range []string{"Hit", "Enable", "Name"} {
		if p.Types.Scope().Lookup(name) == nil {
			t.Errorf("scope is missing %s", name)
		}
	}
	// Dependencies resolve through export data: the fail package imports
	// stdlib sync, whose types must have arrived intact.
	found := false
	for _, imp := range p.Types.Imports() {
		if imp.Path() == "sync" && imp.Scope().Lookup("Mutex") != nil {
			found = true
		}
	}
	if !found {
		t.Error("dependency sync not resolved with type information")
	}
}
