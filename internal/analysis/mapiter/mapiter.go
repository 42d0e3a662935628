// Package mapiter flags range-over-map loops whose bodies reach an
// order-sensitive sink.
//
// Go randomizes map iteration order on purpose. That is harmless when the
// loop is order-independent (counting, copying into another map, deleting,
// taking a max) and catastrophic when the loop order leaks into observable
// state: appending to a slice that is later flooded or encoded, folding
// floats (addition does not commute in IEEE 754), or calling into the
// transport. The repository's byte-identical-replay guarantee dies at the
// first such loop.
//
// The analyzer therefore flags a range over a map only when the loop body
// contains one of the recognized sinks:
//
//   - append assigned to a plain variable (building an ordered slice);
//     appends keyed back into a map (m[k] = append(m[k], ...)) are
//     order-independent and pass
//   - compound assignment (+=, -=, *=, /=) onto a float
//   - a call whose name is on the message-path list (Send, Broadcast,
//     Flood, Encode, Enqueue and their lowercase forms)
//
// The fix is to iterate determinism.SortedKeys(m) (or OrderedRange), which
// ranges over a slice and so never triggers the check. Loops that are
// genuinely order-independent despite a textual sink can carry
// //lint:allow mapiter -- <justification>.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the mapiter check.
var Analyzer = &analysis.Analyzer{
	Name:   "mapiter",
	Escape: "mapiter",
	Doc: "flag range-over-map loops whose bodies append to slices, accumulate " +
		"floats, or call into the message path; iterate determinism.SortedKeys instead",
	Run: run,
}

// messagePathNames are function/method names treated as order-sensitive
// sinks: anything that serializes or transmits observes call order.
var messagePathNames = map[string]bool{
	"Send": true, "send": true,
	"Broadcast": true, "broadcast": true,
	"Flood": true, "flood": true,
	"Encode": true, "encode": true,
	"Enqueue": true, "enqueue": true,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Packages {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if sink := findSink(info, rs.Body); sink != "" {
					pass.Reportf(rs.For,
						"range over map reaches order-sensitive sink (%s): iterate determinism.SortedKeys / OrderedRange for a stable order",
						sink)
				}
				return true
			})
		}
	}
	return nil
}

// findSink walks a range body and names the first order-sensitive sink it
// finds, or returns "".
func findSink(info *types.Info, body *ast.BlockStmt) (sink string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if s := assignSink(info, n); s != "" {
				sink = s
				return false
			}
		case *ast.CallExpr:
			if name := calleeName(n); messagePathNames[name] {
				sink = "call to " + name
				return false
			}
		}
		return true
	})
	return sink
}

func assignSink(info *types.Info, as *ast.AssignStmt) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if isFloat(info, lhs) {
				return "float accumulation"
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) {
				continue
			}
			// m[k] = append(m[k], ...) distributes by key and is
			// order-independent; only appends landing in a plain slice
			// variable build an iteration-ordered sequence.
			if i < len(as.Lhs) {
				if _, keyed := as.Lhs[i].(*ast.IndexExpr); keyed {
					continue
				}
			}
			return "append to slice"
		}
	}
	return ""
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
