// Package analysis is the repo's static-analysis layer: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus the machinery the six
// rtds-lint analyzers share — a go-list-driven package loader with full type
// information (load.go), the runner (run.go), and the //lint:allow
// escape-hatch grammar implemented here.
//
// The x/tools module is deliberately not a dependency: the checks live and
// die with this repository, and everything they need — parsing, type
// checking, export data — ships in the standard library. The Analyzer/Pass
// shape is kept close enough to x/tools that porting to the real
// go/analysis framework later is mostly a rename.
//
// Every analyzer has one shape: its Run is called once with every package
// its scope admits. Per-file checks (detclock, mapiter, exhaustive) loop
// over those packages themselves; whole-program checks (lockorder,
// hotalloc, spawncheck) build a call graph across them
// (internal/analysis/callgraph).
//
// # Escape hatches
//
// A diagnostic can be suppressed, with a mandatory one-line justification,
// by a comment on the offending line or on the line directly above it:
//
//	//lint:allow <escape> -- <justification>
//
// or for a whole file (the wall-clock timer queue in a deterministic
// package, say):
//
//	//lint:file-allow <escape> -- <justification>
//
// <escape> is the analyzer's escape token: wallclock (detclock), mapiter,
// exhaustive, lockorder, hotalloc, spawncheck. The runner rejects
// malformed escapes — an unknown token or a missing justification is
// itself a diagnostic — so an exception cannot be waved through silently.
//
// A second directive declares hot-path roots for the hotalloc analyzer, on
// the line directly above (or the doc comment of) a function declaration:
//
//	//lint:hotpath -- <why this function must stay allocation-free>
//
// The root set thus lives in the source next to the functions it names
// (wire.Encode, the sim event loop, schedule Admit), not in linter
// configuration.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description of what the check enforces.
	Doc string
	// Escape is the token accepted by //lint:allow comments. Defaults to
	// Name; detclock uses "wallclock" (the escape names the forbidden
	// thing, not the checker).
	Escape string
	// Run executes the check once over every package its scope admits.
	Run func(*Pass) error
}

// EscapeToken returns the analyzer's escape-hatch token.
func (a *Analyzer) EscapeToken() string {
	if a.Escape != "" {
		return a.Escape
	}
	return a.Name
}

// A Diagnostic is one reported problem.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass provides one analyzer run with the type-checked packages in its
// scope and collects its diagnostics. Packages share Fset and are sorted by
// import path (Load guarantees both).
type Pass struct {
	Analyzer *Analyzer
	// Dir is the directory the load ran in (the module root for
	// `rtds-lint ./...`); analyzers that shell out to the go tool (the
	// hotalloc escape-analysis cross-check) run it there.
	Dir      string
	Fset     *token.FileSet
	Packages []*Package

	diagnostics []Diagnostic
	allows      *allowIndex
}

// Files returns every file of every package, in package order.
func (p *Pass) Files() []*ast.File {
	var out []*ast.File
	for _, pkg := range p.Packages {
		out = append(out, pkg.Files...)
	}
	return out
}

// Reportf records a diagnostic at pos unless an escape comment allows it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Allowed(pos) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Allowed reports whether an escape comment suppresses diagnostics of this
// pass's analyzer at pos: a file-allow anywhere in the file, or a line
// allow on the same line or the line directly above.
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allows == nil {
		p.allows = indexAllows(p.Fset, p.Files())
	}
	return p.allows.allowed(p.Fset, pos, p.Analyzer.EscapeToken())
}

// ---------------------------------------------------------------------------
// Escape comment parsing

// allowRe matches the escape grammar. Group 1: "file-allow" or "allow",
// group 2: the escape token, group 3: the justification (may be empty,
// which CheckEscapes rejects).
var allowRe = regexp.MustCompile(`^//lint:(allow|file-allow)\s+([A-Za-z0-9_-]+)(?:\s+--\s*(.*))?$`)

// hotpathRe matches the hot-path root directive. Group 1 is the mandatory
// justification: a root without a why is as suspicious as an escape
// without one.
var hotpathRe = regexp.MustCompile(`^//lint:hotpath(?:\s+--\s*(.*))?$`)

// HotpathFuncs returns the functions marked as hot-path roots by a
// //lint:hotpath directive in their doc comment or on the line directly
// above the declaration. The result is in file order.
func HotpathFuncs(fset *token.FileSet, files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		// Lines carrying the directive, whether or not attached as a doc
		// comment (a detached comment line still counts, matching how
		// //lint:allow binds to the line below it).
		marked := make(map[string]map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if hotpathRe.MatchString(c.Text) {
					p := fset.Position(c.Slash)
					if marked[p.Filename] == nil {
						marked[p.Filename] = make(map[int]bool)
					}
					marked[p.Filename][p.Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			p := fset.Position(fd.Pos())
			byLine := marked[p.Filename]
			if byLine == nil {
				continue
			}
			// Anywhere in the doc comment, or the line directly above the
			// func keyword.
			hit := byLine[p.Line-1]
			if fd.Doc != nil {
				start := fset.Position(fd.Doc.Pos()).Line
				for l := start; l < p.Line && !hit; l++ {
					hit = byLine[l]
				}
			}
			if hit {
				out = append(out, fd)
			}
		}
	}
	return out
}

type allowIndex struct {
	fileAllows map[string]map[string]bool // file -> token -> present
	lineAllows map[string]map[int][]string
}

func indexAllows(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{
		fileAllows: make(map[string]map[string]bool),
		lineAllows: make(map[string]map[int][]string),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				switch m[1] {
				case "file-allow":
					byTok := idx.fileAllows[pos.Filename]
					if byTok == nil {
						byTok = make(map[string]bool)
						idx.fileAllows[pos.Filename] = byTok
					}
					byTok[m[2]] = true
				case "allow":
					byLine := idx.lineAllows[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						idx.lineAllows[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], m[2])
				}
			}
		}
	}
	return idx
}

func (idx *allowIndex) allowed(fset *token.FileSet, pos token.Pos, tok string) bool {
	if !pos.IsValid() {
		return false
	}
	p := fset.Position(pos)
	if idx.fileAllows[p.Filename][tok] {
		return true
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, t := range idx.lineAllows[p.Filename][line] {
			if t == tok {
				return true
			}
		}
	}
	return false
}

// CheckEscapes validates every //lint: comment in the files against the
// escape grammar and the known tokens, reporting malformed ones as
// diagnostics. An escape without a justification, or naming a check that
// does not exist, must fail the build rather than silently allow nothing
// (or worse, silently allow everything a typo away).
func CheckEscapes(fset *token.FileSet, files []*ast.File, knownTokens []string) []Diagnostic {
	known := make(map[string]bool, len(knownTokens))
	for _, t := range knownTokens {
		known[t] = true
	}
	var out []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: "lintescape"})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				if h := hotpathRe.FindStringSubmatch(c.Text); h != nil {
					if strings.TrimSpace(h[1]) == "" {
						bad(c.Slash, "hot-path root is missing its justification (//lint:hotpath -- <why>)")
					}
					continue
				}
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					bad(c.Slash, "malformed lint escape %q: want //lint:allow <check> -- <justification>", c.Text)
					continue
				}
				if !known[m[2]] {
					bad(c.Slash, "lint escape names unknown check %q (known: %s)", m[2], strings.Join(knownTokens, ", "))
				}
				if strings.TrimSpace(m[3]) == "" {
					bad(c.Slash, "lint escape for %q is missing its justification (//lint:%s %s -- <why>)", m[2], m[1], m[2])
				}
			}
		}
	}
	return out
}
