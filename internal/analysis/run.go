package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// runOne executes a single analyzer once over the packages the scoping
// function admits (all of them when appliesTo is nil) and returns its
// diagnostics (escape-suppressed ones excluded).
func runOne(a *Analyzer, appliesTo func(*Analyzer, string) bool, dir string, pkgs []*Package) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Dir: dir}
	for _, pkg := range pkgs {
		if appliesTo == nil || appliesTo(a, pkg.ImportPath) {
			pass.Fset = pkg.Fset
			pass.Packages = append(pass.Packages, pkg)
		}
	}
	if len(pass.Packages) == 0 {
		return nil, nil
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	return pass.diagnostics, nil
}

// RunForTest executes one analyzer over one package, bypassing package
// scoping; the analysistest harness drives it directly. dir is Pass.Dir.
func RunForTest(a *Analyzer, dir string, pkg *Package) ([]Diagnostic, error) {
	diags, err := runOne(a, nil, dir, []*Package{pkg})
	if err != nil {
		return nil, err
	}
	SortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// RunPackages validates the escape comments of every package, applies
// every analyzer once to the packages its scope (per appliesTo) admits, and
// returns all diagnostics sorted by position. The packages are loaded from
// dir. The loop is deterministic by construction — Load sorts packages,
// analyzers run in slice order, and the final sort breaks any remaining
// ties — so rtds-lint's output is byte-stable.
func RunPackages(analyzers []*Analyzer, appliesTo func(*Analyzer, string) bool, dir string, pkgs []*Package) ([]Diagnostic, *token.FileSet, error) {
	var tokens []string
	for _, a := range analyzers {
		tokens = append(tokens, a.EscapeToken())
	}
	var diags []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		diags = append(diags, CheckEscapes(pkg.Fset, pkg.Files, tokens)...)
	}
	for _, a := range analyzers {
		ds, err := runOne(a, appliesTo, dir, pkgs)
		if err != nil {
			return nil, nil, err
		}
		diags = append(diags, ds...)
	}
	SortDiagnostics(fset, diags)
	return diags, fset, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer,
// message — a total order, so output never depends on map iteration or
// scheduling (the linter polices determinism; it had better exhibit it).
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	pos := func(d Diagnostic) token.Position {
		if fset == nil || !d.Pos.IsValid() {
			return token.Position{}
		}
		return fset.Position(d.Pos)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pos(diags[i]), pos(diags[j])
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// PrintDiagnostics writes diagnostics in the conventional
// file:line:col: message [analyzer] form.
func PrintDiagnostics(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		if fset != nil && d.Pos.IsValid() {
			fmt.Fprintf(w, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
		} else {
			fmt.Fprintf(w, "%s [%s]\n", d.Message, d.Analyzer)
		}
	}
}
