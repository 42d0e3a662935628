// Package hotalloc forbids heap allocations on the declared hot paths —
// the code the ROADMAP's "zero-allocation wire path / 10x events/sec" item
// lives or dies by: the wire codec, the DES event kernel, and the
// reservation-plan admit path.
//
// Roots are declared in the source, next to the functions they name, with
//
//	//lint:hotpath -- <why this function must stay allocation-free>
//
// on (or directly above) the declaration. The analyzer builds the call
// graph of the scoped packages, walks everything reachable from the roots
// through ordinary and deferred calls (a goroutine spawned from a hot path
// is not the per-operation cost; a deferred call is), and classifies
// allocation candidates: make, new, composite literals, func literals,
// string/[]byte conversions, interface boxing at call arguments, appends
// into provably-fresh slices, and fmt calls.
//
// Classification alone would drown in false positives — a `make` with
// constant size that stays local never touches the heap — so the AST view
// is cross-checked against the compiler's own escape analysis
// (`go build -gcflags=-m`), and the two views must agree:
//
//   - a candidate the compiler confirms ("escapes to heap" / "moved to
//     heap" on the same line) is reported;
//   - a candidate the compiler clears is silent — it lives on the stack;
//   - a compiler-reported heap allocation with no candidate on its line is
//     reported as a classifier gap, so the AST view cannot quietly go
//     blind;
//   - appends into fresh slices and fmt calls allocate by construction
//     (growth and argument boxing don't show up as escape messages), so
//     they skip the cross-check and are reported outright.
//
// Error construction is exempt by convention: fmt.Errorf, errors.New, and
// panic arguments run on failure paths, not in the steady state the hot
// path is measured on. A justified exception elsewhere carries
// //lint:allow hotalloc -- <why>.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name:   "hotalloc",
	Escape: "hotalloc",
	Doc: "forbid heap allocations reachable from //lint:hotpath roots, " +
		"cross-checked against go build -gcflags=-m escape analysis",
	Run: run,
}

// A candidate is one potential allocation site found in hot code.
type candidate struct {
	pos  token.Pos
	kind string
	// confirm: true means the candidate only allocates if the compiler's
	// escape analysis agrees; false means it allocates by construction.
	confirm bool
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass.Fset, pass.Packages)

	roots := hotpathRoots(g, pass.Packages)
	if len(roots) == 0 {
		return nil
	}

	// Root attribution: BFS per root (sorted), first root wins.
	rootOf := make(map[*callgraph.Node]string)
	follow := func(e *callgraph.Edge) bool {
		return e.Ctx == callgraph.Call || e.Ctx == callgraph.Defer
	}
	for _, r := range roots {
		for n := range g.Reachable([]*callgraph.Node{r}, follow) {
			if _, ok := rootOf[n]; !ok {
				rootOf[n] = r.Name
			}
		}
	}
	// Deterministic hot-node order.
	var hot []*callgraph.Node
	for n := range rootOf {
		hot = append(hot, n)
	}
	callgraph.SortNodes(hot)

	escapes, err := escapeFacts(pass)
	if err != nil {
		return fmt.Errorf("escape-analysis cross-check: %v", err)
	}

	for _, n := range hot {
		root := rootOf[n]
		cands, exempt := collect(n)
		lines := make(map[int]bool)
		// Error-construction calls are exempt by convention, but the compiler
		// still reports their argument boxing; cover their lines so the gap
		// check below does not re-surface what the exemption waived.
		for _, span := range exempt {
			from := position(pass.Fset, span.from).Line
			to := position(pass.Fset, span.to).Line
			for line := from; line <= to; line++ {
				lines[line] = true
			}
		}
		for _, c := range cands {
			p := position(pass.Fset, c.pos)
			lines[p.Line] = true
			marks := escapes[lineKey{p.Filename, p.Line}]
			switch {
			case !c.confirm:
				pass.Reportf(c.pos,
					"hot-path allocation (%s) reachable from %s — allocates on every call; reuse a buffer or move it off the hot path",
					c.kind, root)
			case marks.heap:
				pass.Reportf(c.pos,
					"hot-path allocation (%s) reachable from %s — escape analysis confirms it reaches the heap; hoist or reuse",
					c.kind, root)
			}
			// confirm-candidates the compiler clears are stack: silent.
		}
		// The reverse direction: compiler-reported heap allocations in
		// this body that no candidate covers are classifier gaps.
		body := n.Body()
		if body == nil {
			continue
		}
		start := position(pass.Fset, body.Pos())
		end := position(pass.Fset, body.End())
		var gapLines []int
		for key, mark := range escapes {
			if !mark.heap || key.file != start.Filename {
				continue
			}
			if key.line < start.Line || key.line > end.Line || lines[key.line] {
				continue
			}
			gapLines = append(gapLines, key.line)
		}
		sort.Ints(gapLines)
		for _, line := range gapLines {
			mark := escapes[lineKey{start.Filename, line}]
			pass.Reportf(posOnLine(pass.Fset, body, line),
				"compiler reports %q on the hot path (reachable from %s) but hotalloc has no allocation candidate here — the two views must agree",
				mark.msg, root)
		}
	}
	return nil
}

// hotpathRoots maps //lint:hotpath-marked declarations to graph nodes.
func hotpathRoots(g *callgraph.Graph, pkgs []*analysis.Package) []*callgraph.Node {
	var roots []*callgraph.Node
	for _, pkg := range pkgs {
		for _, fd := range analysis.HotpathFuncs(pkg.Fset, pkg.Files) {
			if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				if n := g.NodeOf(obj); n != nil {
					roots = append(roots, n)
				}
			}
		}
	}
	callgraph.SortNodes(roots)
	return roots
}

// An exemptSpan is the source range of an error-construction call
// (panic, errors.New, fmt.Errorf) whose allocations are waived.
type exemptSpan struct {
	from, to token.Pos
}

// collect classifies the allocation candidates of one function body.
// Nested function literals are their own nodes and are skipped (their
// creation is itself a candidate; their bodies are visited when reachable).
func collect(n *callgraph.Node) ([]candidate, []exemptSpan) {
	info := n.Pkg.TypesInfo
	var out []candidate
	var exempt []exemptSpan
	add := func(pos token.Pos, kind string, confirm bool) {
		out = append(out, candidate{pos: pos, kind: kind, confirm: confirm})
	}
	waive := func(e ast.Expr) {
		exempt = append(exempt, exemptSpan{from: e.Pos(), to: e.End()})
	}
	body := n.Body()
	if body == nil {
		return nil, nil
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			if e.Pos() != n.Pos() { // not this node itself
				add(e.Pos(), "func literal", true)
				return false
			}
		case *ast.CompositeLit:
			add(e.Pos(), "composite literal", true)
		case *ast.CallExpr:
			return collectCall(info, e, add, waive)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out, exempt
}

// collectCall classifies one call expression; the return value says
// whether to descend into the call's children. Exempt error-construction
// calls are recorded via waive so the escape-analysis cross-check knows
// their lines are intentionally uncovered.
func collectCall(info *types.Info, call *ast.CallExpr, add func(token.Pos, string, bool), waive func(ast.Expr)) bool {
	// Conversions: string<->[]byte/[]rune copy; anything else is free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if isStringBytesConv(tv.Type, info, call) {
			add(call.Pos(), "string conversion copy", true)
		}
		return true
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make "+typeString(info, call), true)
				return true
			case "new":
				add(call.Pos(), "new", true)
				return true
			case "append":
				if len(call.Args) > 0 && freshSlice(info, call.Args[0]) {
					add(call.Pos(), "append to fresh slice", false)
				}
				// Growth of a reused buffer is amortized away in steady
				// state — the whole point of the Append* codec shape.
				boxedArgs(info, call, add)
				return true
			case "panic":
				waive(call)
				return false // failure path: exempt, don't descend
			}
		}
	case *ast.SelectorExpr:
		if pkgName, ok := pkgOf(info, fun); ok {
			switch {
			case pkgName == "errors" && fun.Sel.Name == "New":
				waive(call)
				return false // error construction: exempt
			case pkgName == "fmt" && fun.Sel.Name == "Errorf":
				waive(call)
				return false // error construction: exempt
			case pkgName == "fmt":
				add(call.Pos(), "fmt."+fun.Sel.Name, false)
				return true
			}
		}
	}
	boxedArgs(info, call, add)
	return true
}

// boxedArgs flags concrete values passed where the callee takes an
// interface — each such argument is boxed, which allocates if it escapes
// (so these are confirm-candidates). A pointer-shaped value (pointer, map,
// chan, func) is the interface's data word itself and is never boxed.
func boxedArgs(info *types.Info, call *ast.CallExpr, add func(token.Pos, string, bool)) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || types.IsInterface(at.Type) {
			continue
		}
		if at.IsNil() || isUntypedConst(at) || pointerShaped(at.Type) {
			continue
		}
		add(arg.Pos(), "interface boxing", true)
	}
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

func isUntypedConst(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Info()&types.IsUntyped != 0
}

// freshSlice reports whether the append destination is provably a brand
// new slice: a composite literal or a []T(nil) conversion.
func freshSlice(info *types.Info, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			if av, ok := info.Types[x.Args[0]]; ok && av.IsNil() {
				return true
			}
		}
	}
	return false
}

func isStringBytesConv(target types.Type, info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	at, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
	}
	return (isStr(target) && isByteSlice(at.Type)) || (isByteSlice(target) && isStr(at.Type))
}

func pkgOf(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

func typeString(info *types.Info, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Type != nil {
		return types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
	}
	return ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// position returns the absolute-path position of pos.
func position(fset *token.FileSet, pos token.Pos) token.Position {
	p := fset.Position(pos)
	if abs, err := filepath.Abs(p.Filename); err == nil {
		p.Filename = abs
	}
	return p
}

// posOnLine finds a position on the given line inside body for anchoring a
// gap diagnostic (the body start if nothing closer is found).
func posOnLine(fset *token.FileSet, body *ast.BlockStmt, line int) token.Pos {
	var best token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if fset.Position(n.Pos()).Line == line && (!best.IsValid() || n.Pos() < best) {
			best = n.Pos()
		}
		return true
	})
	if !best.IsValid() {
		return body.Pos()
	}
	return best
}
