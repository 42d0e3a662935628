// Package analysistest runs an analyzer over a testdata package and checks
// its diagnostics against // want comments, mirroring (a useful subset of)
// golang.org/x/tools/go/analysis/analysistest.
//
// A testdata package is a directory of ordinary Go files (conventionally
// testdata/src/<name>/ under the analyzer's package). Each expected
// diagnostic is declared on the line it is reported at:
//
//	m := map[int]int{}
//	for k := range m { // want `range over map reaches .*`
//		out = append(out, k)
//	}
//
// Every quoted string after "want" is a regular expression; one diagnostic
// must match each, on that line, and no diagnostic may go undeclared. This
// is how each rtds-lint analyzer proves both halves of its contract: it
// catches the seeded violation, and it stays silent on the fixed form.
package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// Run loads the Go files in dir as one package, applies the analyzer to
// it, and reports mismatches against the // want comments through t. dir
// doubles as Pass.Dir, so an analyzer that shells out to the go tool
// (hotalloc's escape-analysis cross-check) runs it over the fixture
// sources.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkg, fset, files := load(t, dir)
	diags, err := analysis.RunForTest(a, dir, pkg)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	check(t, fset, files, diags)
}

// check matches reported diagnostics against the // want expectations.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.file, w.line, w.re)
		}
	}
}

// load parses and type-checks the fixture directory as one package.
func load(t *testing.T, dir string) (*analysis.Package, *token.FileSet, []*ast.File) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var imports []string
	seen := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	pkg, err := analysis.TypecheckStandalone(fset, files, exportsFor(t, imports))
	if err != nil {
		t.Fatalf("analysistest: typecheck %s: %v", dir, err)
	}
	return pkg, fset, files
}

var (
	exportsMu    sync.Mutex
	exportsCache = map[string]string{}
)

// exportsFor resolves export-data files for the testdata package's imports
// (standard library, possibly this module's packages) via one `go list`
// invocation, cached process-wide.
func exportsFor(t *testing.T, imports []string) map[string]string {
	t.Helper()
	exportsMu.Lock()
	defer exportsMu.Unlock()
	var missing []string
	for _, p := range imports {
		if _, ok := exportsCache[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		found, err := analysis.ListExports(".", missing)
		if err != nil {
			t.Fatalf("analysistest: resolving imports %v: %v", missing, err)
		}
		for p, f := range found {
			exportsCache[p] = f
		}
	}
	out := make(map[string]string, len(exportsCache))
	for p, f := range exportsCache {
		out[p] = f
	}
	return out
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRe pulls the quoted expectations out of a want comment. Both "..."
// and `...` quoting are accepted.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Slash)
				matches := wantRe.FindAllStringSubmatch(text[len("want "):], -1)
				if len(matches) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range matches {
					expr := m[1]
					if expr == "" {
						expr = m[2]
						expr = strings.ReplaceAll(expr, `\"`, `"`)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// Dir returns the conventional testdata package directory for a named
// testdata package: testdata/src/<name> relative to the caller's package.
func Dir(name string) string {
	return filepath.Join("testdata", "src", name)
}
