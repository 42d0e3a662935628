package callgraph

// The body walker. One pass per function builds both halves of the node:
// outgoing edges (static calls, CHA-resolved interface calls, function
// values) and the lock summary (acquisitions with held sets, held sets on
// call edges). Held-set tracking is intra-procedural: locks are
// interpreted sequentially through the statement list, nested control flow
// gets a copy of the set, a deferred Unlock keeps the lock held to the end
// of the body, and go/defer bodies inherit nothing.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

type walker struct {
	g    *Graph
	node *Node
	pkg  *analysis.Package
	// curGo is the go statement being scanned, attached to Go-context
	// edges so spawncheck can pair spawn and join evidence.
	curGo *ast.GoStmt
}

func walkBody(g *Graph, n *Node) {
	w := &walker{g: g, node: n, pkg: n.Pkg}
	w.stmts(n.Body().List, map[string]bool{})
}

// walkLit walks a function literal as its own node with an empty held set.
// Each literal is reached exactly once: here from its lexically enclosing
// body, never via ast.Inspect from further out.
func (w *walker) walkLit(lit *ast.FuncLit) {
	ln := w.g.byLit[lit]
	if ln == nil {
		return
	}
	lw := &walker{g: w.g, node: ln, pkg: w.pkg}
	lw.stmts(lit.Body.List, map[string]bool{})
}

func (w *walker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case nil:
	case *ast.ExprStmt:
		if op, class, ok := w.lockOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				w.node.Acquires = append(w.node.Acquires, Acquire{
					Class: class,
					Read:  op == "RLock",
					Held:  sortedKeys(held),
					Pos:   s.X.Pos(),
				})
				held[class] = true
			default:
				delete(held, class)
			}
			return
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock stays held for the
		// rest of the body. Any other deferred call runs outside the
		// body's lock pairing, so its edge carries an empty held set; its
		// arguments, though, are evaluated right now.
		if op, _, ok := w.lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return
		}
		w.scanCall(s.Call, held, Defer)
	case *ast.GoStmt:
		w.node.Spawns = append(w.node.Spawns, s)
		w.curGo = s
		w.scanCall(s.Call, held, Go)
		w.curGo = nil
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scanExpr(e, held)
					}
				}
			}
		}
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.scanExpr(s.Cond, held)
		w.stmts(s.Body.List, copyOf(held))
		if s.Else != nil {
			w.stmt(s.Else, copyOf(held))
		}
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		w.scanExpr(s.Cond, held)
		inner := copyOf(held)
		w.stmts(s.Body.List, inner)
		w.stmt(s.Post, inner)
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.stmts(s.Body.List, copyOf(held))
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.scanExpr(s.Tag, held)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				w.scanExpr(e, held)
			}
			w.stmts(clause.Body, copyOf(held))
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		for _, cc := range s.Body.List {
			w.stmts(cc.(*ast.CaseClause).Body, copyOf(held))
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			inner := copyOf(held)
			w.stmt(clause.Comm, inner)
			w.stmts(clause.Body, inner)
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, held)
	}
}

// scanExpr finds calls, literals, and function values inside an arbitrary
// expression.
func (w *walker) scanExpr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			w.scanCall(x, held, Call)
			return false
		case *ast.FuncLit:
			w.addEdge(w.g.byLit[x], Ref, false, x.Pos())
			w.walkLit(x)
			return false
		case *ast.Ident:
			w.refIdent(x)
		case *ast.SelectorExpr:
			if w.refSelector(x) {
				w.scanExpr(x.X, held)
				return false
			}
		}
		return true
	})
}

// scanCall resolves one call expression into edges and scans its operands.
// ctx is Call for ordinary calls, Go/Defer when the call is the operand of
// a go or defer statement (arguments still evaluate immediately, under the
// current held set).
func (w *walker) scanCall(call *ast.CallExpr, held map[string]bool, ctx Context) {
	info := w.pkg.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// A conversion, not a call.
		for _, a := range call.Args {
			w.scanExpr(a, held)
		}
		return
	}
	fun := unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.FuncLit:
		w.edgeWithHeld(w.g.byLit[f], ctx, false, call.Pos(), held)
		w.walkLit(f)
	case *ast.Ident:
		if obj, ok := info.Uses[f].(*types.Func); ok {
			w.edgeWithHeld(w.g.byObj[obj], ctx, false, call.Pos(), held)
		}
		// A plain func-valued variable: dynamic, unresolved.
	case *ast.SelectorExpr:
		w.selectorCall(f, call, held, ctx)
		w.scanExpr(f.X, held)
	default:
		// f()(), m[k](), ... — scan for the inner calls/values.
		w.scanExpr(fun, held)
	}
	for _, a := range call.Args {
		w.scanExpr(a, held)
	}
}

// selectorCall resolves x.M(...) / pkg.F(...) call sites.
func (w *walker) selectorCall(sel *ast.SelectorExpr, call *ast.CallExpr, held map[string]bool, ctx Context) {
	info := w.pkg.TypesInfo
	if selection, ok := info.Selections[sel]; ok {
		switch selection.Kind() {
		case types.MethodVal:
			method, ok := selection.Obj().(*types.Func)
			if !ok {
				return
			}
			if iface, ok := selection.Recv().Underlying().(*types.Interface); ok {
				for _, target := range w.g.implementers(iface, method) {
					w.edgeWithHeld(target, ctx, true, call.Pos(), held)
				}
				return
			}
			w.edgeWithHeld(w.g.byObj[method], ctx, false, call.Pos(), held)
		case types.MethodExpr:
			if method, ok := selection.Obj().(*types.Func); ok {
				w.edgeWithHeld(w.g.byObj[method], ctx, false, call.Pos(), held)
			}
		case types.FieldVal:
			// Calling a func-typed field: dynamic, unresolved.
		}
		return
	}
	// Qualified identifier: pkg.F(...).
	if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
		w.edgeWithHeld(w.g.byObj[obj], ctx, false, call.Pos(), held)
	}
}

// refIdent records a Ref edge for a function named in value position.
func (w *walker) refIdent(id *ast.Ident) {
	if obj, ok := w.pkg.TypesInfo.Uses[id].(*types.Func); ok {
		w.addEdge(w.g.byObj[obj], Ref, false, id.Pos())
	}
}

// refSelector records a Ref edge for a method value or qualified function
// in value position, reporting whether sel named a function.
func (w *walker) refSelector(sel *ast.SelectorExpr) bool {
	info := w.pkg.TypesInfo
	if selection, ok := info.Selections[sel]; ok {
		if selection.Kind() != types.MethodVal && selection.Kind() != types.MethodExpr {
			return false
		}
		method, ok := selection.Obj().(*types.Func)
		if !ok {
			return false
		}
		if iface, ok := selection.Recv().Underlying().(*types.Interface); ok {
			for _, target := range w.g.implementers(iface, method) {
				w.addEdge(target, Ref, true, sel.Pos())
			}
			return true
		}
		w.addEdge(w.g.byObj[method], Ref, false, sel.Pos())
		return true
	}
	if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
		w.addEdge(w.g.byObj[obj], Ref, false, sel.Pos())
		return true
	}
	return false
}

func (w *walker) edgeWithHeld(callee *Node, ctx Context, dynamic bool, pos token.Pos, held map[string]bool) {
	e := w.addEdge(callee, ctx, dynamic, pos)
	if e != nil && ctx == Call {
		e.Held = sortedKeys(held)
	}
}

func (w *walker) addEdge(callee *Node, ctx Context, dynamic bool, pos token.Pos) *Edge {
	if callee == nil {
		return nil
	}
	e := &Edge{Caller: w.node, Callee: callee, Pos: pos, Ctx: ctx, Dynamic: dynamic}
	if ctx == Go {
		e.GoStmt = w.curGo
	}
	w.node.Out = append(w.node.Out, e)
	return e
}

// ---------------------------------------------------------------------------
// Lock recognition

// lockOp recognizes x.mu.Lock()/RLock()/Unlock()/RUnlock() on sync.Mutex /
// sync.RWMutex values (directly or through an embedded field) and returns
// the operation and the canonical lock class.
func (w *walker) lockOp(e ast.Expr) (op, class string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	info := w.pkg.TypesInfo
	if tv, found := info.Types[sel.X]; found && isSyncLock(tv.Type) {
		return sel.Sel.Name, w.lockClass(sel.X), true
	}
	// Embedded mutex: s.Lock() where the Mutex is an embedded field of
	// s's type. The selection's method is sync's, the receiver is not.
	if selection, found := info.Selections[sel]; found && selection.Kind() == types.MethodVal {
		if m, isFn := selection.Obj().(*types.Func); isFn &&
			m.Pkg() != nil && m.Pkg().Path() == "sync" {
			if named := namedOf(selection.Recv()); named != nil {
				return sel.Sel.Name, fullTypeName(named) + ".(embedded)", true
			}
		}
	}
	return "", "", false
}

// lockClass derives the program-wide class of a mutex expression:
//
//   - a field of a named struct -> "pkgpath.Type.field" (every instance of
//     the type shares the class — lock order is a property of the type);
//   - a package-level variable -> "pkgpath.var";
//   - anything else (locals, parameters) -> "<enclosing func>.expr".
func (w *walker) lockClass(e ast.Expr) string {
	info := w.pkg.TypesInfo
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[x]; ok && selection.Kind() == types.FieldVal {
			if named := namedOf(selection.Recv()); named != nil {
				return fullTypeName(named) + "." + x.Sel.Name
			}
		}
		// Qualified package-level variable: otherpkg.mu.
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Var); ok {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return w.node.Name + "." + obj.Name()
		}
	}
	return w.node.Name + "." + types.ExprString(e)
}

func isSyncLock(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func namedOf(t types.Type) *types.Named {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
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

func copyOf(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
