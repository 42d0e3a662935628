package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestCheckEscapesRejectsMalformedComments(t *testing.T) {
	fset, files := parseOne(t, `package p

//lint:allow mapiter -- justified exception
var a int

//lint:allow mapiter
var b int

//lint:allow nosuchcheck -- typo in the token
var c int

//lint:alow mapiter -- misspelled directive
var d int

//lint:file-allow wallclock -- whole file is on the live side
var e int
`)
	diags := CheckEscapes(fset, files, []string{"wallclock", "mapiter", "exhaustive", "lockorder"})
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	wants := []string{"missing its justification", "unknown check", "malformed lint escape"}
	SortDiagnostics(fset, diags)
	for i, w := range wants {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w)
		}
		if diags[i].Analyzer != "lintescape" {
			t.Errorf("diagnostic %d attributed to %q, want lintescape", i, diags[i].Analyzer)
		}
	}
}

func TestAllowScopes(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	g() //lint:allow mapiter -- same line

	g()

	//lint:allow mapiter -- line above
	g()
}
`)
	a := &Analyzer{Name: "mapiter", Run: func(*Pass) error { return nil }}
	pass := &Pass{Analyzer: a, Fset: fset, Packages: []*Package{{Fset: fset, Files: files}}}
	// Reportf at each g() call; only the unescaped middle one survives.
	ast.Inspect(files[0], func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			pass.Reportf(call.Pos(), "flagged")
		}
		return true
	})
	if len(pass.diagnostics) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (the unescaped call): %v", len(pass.diagnostics), pass.diagnostics)
	}
	if line := fset.Position(pass.diagnostics[0].Pos).Line; line != 6 {
		t.Errorf("surviving diagnostic on line %d, want 6", line)
	}
}

func TestFileAllowSuppressesWholeFile(t *testing.T) {
	fset, files := parseOne(t, `package p

//lint:file-allow wallclock -- live-side file

func f() { g() }
func h() { g() }
`)
	a := &Analyzer{Name: "detclock", Escape: "wallclock", Run: func(*Pass) error { return nil }}
	pass := &Pass{Analyzer: a, Fset: fset, Packages: []*Package{{Fset: fset, Files: files}}}
	ast.Inspect(files[0], func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			pass.Reportf(call.Pos(), "flagged")
		}
		return true
	})
	if len(pass.diagnostics) != 0 {
		t.Fatalf("file-allow did not suppress: %v", pass.diagnostics)
	}
}
