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

// TestRunPackagesPrintsSortedDiagnostics: RunPackages checks the escape
// comments, runs each analyzer over the packages its scope admits, and
// PrintDiagnostics renders the result, sorted by position, as rtds-lint
// prints it.
func TestRunPackagesPrintsSortedDiagnostics(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	g()
	g() //lint:allow calls
	g() //lint:allow nosuch -- unknown token
}
`)
	reportCalls := func(p *Pass) error {
		for _, f := range p.Files() {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					p.Reportf(call.Pos(), "call")
				}
				return true
			})
		}
		return nil
	}
	calls := &Analyzer{Name: "calls", Run: reportCalls}
	outOfScope := &Analyzer{Name: "scoped", Run: reportCalls}
	appliesTo := func(a *Analyzer, path string) bool { return a != outOfScope && path == "p" }
	diags, gotFset, err := RunPackages([]*Analyzer{outOfScope, calls}, appliesTo, ".",
		[]*Package{{ImportPath: "p", Fset: fset, Files: files}})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	PrintDiagnostics(&out, gotFset, diags)
	// The escape on line 5 also covers line 6, the line below it.
	const want = "a.go:4:2: call [calls]\n" +
		"a.go:5:6: lint escape for \"calls\" is missing its justification (//lint:allow calls -- <why>) [lintescape]\n" +
		"a.go:6:6: lint escape names unknown check \"nosuch\" (known: scoped, calls) [lintescape]\n"
	if out.String() != want {
		t.Fatalf("printed\n%s\nwant\n%s", out.String(), want)
	}
	var bare strings.Builder
	PrintDiagnostics(&bare, nil, diags[:1])
	if bare.String() != "call [calls]\n" {
		t.Fatalf("without a file set printed %q", bare.String())
	}
}
