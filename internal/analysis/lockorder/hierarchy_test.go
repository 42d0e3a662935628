package lockorder_test

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/rtdslint"
)

// TestDocumentedHierarchyMatchesDerived keeps DocumentedHierarchy (doc.go)
// in agreement with the hierarchy derived from the real repository, over
// the same packages rtds-lint's lockorder check polices: the documentation
// of the lock discipline is executable, not aspirational.
func TestDocumentedHierarchyMatchesDerived(t *testing.T) {
	pkgs, err := analysis.Load("../../../", []string{"./internal/..."})
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	var scoped []*analysis.Package
	for _, p := range pkgs {
		if rtdslint.AppliesTo(lockorder.Analyzer, p.ImportPath) {
			scoped = append(scoped, p)
		}
	}
	got := lockorder.Hierarchy(scoped[0].Fset, scoped)
	if !slices.Equal(got, lockorder.DocumentedHierarchy) {
		t.Fatalf("derived hierarchy %q does not match DocumentedHierarchy %q — update doc.go to record the new locking discipline",
			got, lockorder.DocumentedHierarchy)
	}
}
