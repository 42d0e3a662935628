// Package exhaustive checks that switches over the repository's protocol
// enums cover every constant.
//
// The wire codec and the reject-stage accounting dispatch on small
// named-type constant sets (wire.Kind, core.RejectStage). When a new
// message kind or stage is added, every switch that silently falls through
// becomes a protocol bug that no test exercises until two
// differently-versioned binaries meet. This analyzer turns that omission
// into a CI failure.
//
// A switch is in scope when its tag has a named type with at least two
// package-level constants of exactly that type declared in the type's
// package. Such a switch must either:
//
//   - enumerate every constant of the type (no default needed — this is
//     the preferred dispatch form, because adding a constant then breaks
//     the build's lint step at every dispatch site), or
//   - carry a default case with a non-empty body that rejects the
//     unexpected value (return an error, panic, count a metric). An empty
//     default is a silent swallow and is flagged.
//
// Intentionally partial switches carry
// //lint:allow exhaustive -- <justification>.
package exhaustive

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the exhaustive check.
var Analyzer = &analysis.Analyzer{
	Name:   "exhaustive",
	Escape: "exhaustive",
	Doc: "switches over protocol enum types (named types with package-level " +
		"constant sets) must cover every constant or reject via a non-empty default",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				checkSwitch(pass, pkg, sw)
				return true
			})
		}
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, pkg *analysis.Package, sw *ast.SwitchStmt) {
	tv, ok := pkg.TypesInfo.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	consts := enumConstants(named)
	if len(consts) < 2 {
		return // not an enum-like type
	}

	covered := map[string]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			if v := pkg.TypesInfo.Types[e].Value; v != nil {
				covered[v.ExactString()] = true
			}
		}
	}

	typeName := named.Obj().Name()
	if p := named.Obj().Pkg(); p != nil && p != pkg.Types {
		typeName = p.Name() + "." + typeName
	}

	if defaultClause != nil {
		if len(defaultClause.Body) == 0 {
			pass.Reportf(defaultClause.Case,
				"switch over %s has an empty default: silently swallowing unknown values hides protocol drift — reject explicitly or enumerate all constants",
				typeName)
		}
		return // a non-empty default handles future constants
	}

	var missing []string
	for _, c := range consts {
		if !covered[c.Val().ExactString()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(sw.Switch,
			"switch over %s is not exhaustive: missing %s (add the cases or a rejecting default)",
			typeName, strings.Join(missing, ", "))
	}
}

// enumConstants returns the package-level constants declared in the named
// type's own package whose type is exactly that named type, deduplicated by
// value is NOT applied — aliases like kindMax = kindJoinAck count once per
// distinct value during coverage checking anyway.
func enumConstants(named *types.Named) []*types.Const {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil // builtin (error, comparable) — never an enum
	}
	scope := pkg.Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	return out
}
