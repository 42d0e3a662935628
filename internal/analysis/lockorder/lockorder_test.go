package lockorder

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, Analyzer, analysistest.Dir("a"))
}

func TestAllowSilences(t *testing.T) {
	analysistest.Run(t, Analyzer, analysistest.Dir("allow"))
}

func TestHierarchy(t *testing.T) {
	const src = `package h
import "sync"
type Outer struct{ mu sync.Mutex }
type Mid struct{ mu sync.Mutex }
type Inner struct{ mu sync.Mutex }
func a(o *Outer, m *Mid) { o.mu.Lock(); defer o.mu.Unlock(); m.mu.Lock(); m.mu.Unlock() }
func b(m *Mid, i *Inner) { m.mu.Lock(); defer m.mu.Unlock(); i.mu.Lock(); i.mu.Unlock() }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "h.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	exports, err := analysis.ListExports(".", []string{"sync"})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.TypecheckStandalone(fset, []*ast.File{f}, exports)
	if err != nil {
		t.Fatal(err)
	}
	got := Hierarchy(fset, []*analysis.Package{pkg})
	want := []string{"h.Outer.mu", "h.Mid.mu", "h.Inner.mu"}
	if len(got) != len(want) {
		t.Fatalf("hierarchy = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hierarchy = %v, want %v", got, want)
		}
	}
}
