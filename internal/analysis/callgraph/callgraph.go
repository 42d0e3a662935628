// Package callgraph builds a type-based whole-program call graph over the
// packages a lint run loads, plus the per-function summaries the
// second-generation analyzers (lockorder, hotalloc, spawncheck) compose
// transitively: which lock classes a function acquires and with what held,
// which calls it makes under which locks, and which goroutines it spawns.
//
// Resolution is deliberately CHA (class-hierarchy analysis), not points-to:
// a call through an interface method resolves to every concrete type in the
// load whose method set implements the interface. That over-approximates —
// simnet.Transport has both the in-process and the TCP implementation, and
// both count at every call site — which is exactly the right bias for the
// clients: a deadlock or allocation that any implementation can reach is a
// finding.
//
// Function literals are nodes of their own, not inlined into the enclosing
// function. A closure handed to transport.After runs after the caller's
// locks are released — the sanctioned fix for send-under-lock bugs — so it
// must not inherit the caller's held set. The enclosing function gets a
// Call-context edge to a literal only when the literal is invoked on the
// spot; a literal that is deferred, spawned, or passed as a value gets a
// Defer/Go/Ref edge, all of which start with an empty held set.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Context says how an edge's callee comes to run, which decides whether it
// inherits the caller's held locks.
type Context int

const (
	// Call is an ordinary call: the callee runs here, under the caller's
	// current held set.
	Call Context = iota
	// Go is a go statement: the callee runs on a fresh goroutine with no
	// inherited locks.
	Go
	// Defer is a deferred call: it runs at function exit, after the
	// lock/unlock pairing of the body, so it inherits nothing either.
	Defer
	// Ref is a function or method value taken but not called here; it may
	// run later, lock-free as far as this site is concerned.
	Ref
)

func (c Context) String() string {
	switch c {
	case Call:
		return "call"
	case Go:
		return "go"
	case Defer:
		return "defer"
	case Ref:
		return "ref"
	}
	return fmt.Sprintf("Context(%d)", int(c))
}

// An Edge is one resolved call (or function-value reference) site.
type Edge struct {
	Caller *Node
	Callee *Node
	// Pos is the call (or reference) position.
	Pos token.Pos
	// Ctx is how the callee comes to run.
	Ctx Context
	// Dynamic marks edges resolved by CHA over an interface method set
	// rather than direct name binding.
	Dynamic bool
	// Held is the set of lock classes held at the site, sorted. Always
	// empty for Go/Defer/Ref edges.
	Held []string
	// GoStmt is set on Go-context edges: the statement that spawned the
	// callee (spawncheck keys its evidence search on it).
	GoStmt *ast.GoStmt
}

// An Acquire is one Lock/RLock call, with the lock classes already held
// when it executes.
type Acquire struct {
	// Class is the canonical lock class, e.g.
	// "repro/internal/simnet.Stats.mu" for a field mutex or
	// "repro/internal/core.epochGate" for a package-level one.
	Class string
	// Read marks RLock acquisitions.
	Read bool
	// Held is the set of classes already held, sorted.
	Held []string
	Pos  token.Pos
}

// A Node is one function body: a declared function or method, or a
// function literal.
type Node struct {
	// Pkg is the package the body lives in.
	Pkg *analysis.Package
	// Decl is set for declared functions; Lit for literals. Exactly one is
	// non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Obj is the declared function's type object (nil for literals).
	Obj *types.Func
	// Name is the stable qualified name: "pkgpath.Func",
	// "(pkgpath.Recv).Method", or "enclosing$N" for the N-th literal (in
	// source order) inside its enclosing function.
	Name string

	// Out holds the outgoing edges in source order (CHA fan-out at one
	// site is ordered by callee name).
	Out []*Edge
	// In holds the incoming edges, filled after all bodies are walked.
	In []*Edge
	// Acquires lists the node's own lock acquisitions in source order.
	Acquires []Acquire
	// Spawns lists the node's go statements in source order.
	Spawns []*ast.GoStmt
}

// Body returns the function body block.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the declaration (or literal) position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// A Graph is the call graph of one load.
type Graph struct {
	Fset *token.FileSet
	// Nodes is every function body, in package / file / position order.
	Nodes []*Node

	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	// concrete is every named non-interface type declared in the load,
	// sorted by full name: the CHA universe.
	concrete []*types.Named
}

// NodeOf returns the node for a declared function object, or nil.
func (g *Graph) NodeOf(obj *types.Func) *Node { return g.byObj[obj] }

// Build constructs the call graph and per-function summaries for the given
// packages (normally every package of one load — resolution quality
// degrades gracefully if callees live outside the set: those calls are
// simply unresolved).
func Build(fset *token.FileSet, pkgs []*analysis.Package) *Graph {
	g := &Graph{
		Fset:  fset,
		byObj: make(map[*types.Func]*Node),
		byLit: make(map[*ast.FuncLit]*Node),
	}
	g.collectNodes(pkgs)
	g.collectConcreteTypes(pkgs)
	for _, n := range g.Nodes {
		if n.Decl != nil { // literals are walked from their enclosing decl
			walkBody(g, n)
		}
	}
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			e.Callee.In = append(e.Callee.In, e)
		}
	}
	return g
}

// collectNodes creates a node per function declaration with a body and per
// function literal, naming literals enclosing$1, enclosing$2, ... in
// source order.
func (g *Graph) collectNodes(pkgs []*analysis.Package) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				n := &Node{Pkg: pkg, Decl: fd, Obj: obj, Name: declName(pkg, fd, obj)}
				g.Nodes = append(g.Nodes, n)
				if obj != nil {
					g.byObj[obj] = n
				}
				idx := 0
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					lit, ok := x.(*ast.FuncLit)
					if !ok {
						return true
					}
					idx++
					ln := &Node{Pkg: pkg, Lit: lit, Name: fmt.Sprintf("%s$%d", n.Name, idx)}
					g.Nodes = append(g.Nodes, ln)
					g.byLit[lit] = ln
					return true // nested literals are numbered depth-first
				})
			}
		}
	}
}

// declName renders the qualified function name.
func declName(pkg *analysis.Package, fd *ast.FuncDecl, obj *types.Func) string {
	path := pkg.ImportPath
	if obj != nil && obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return path + "." + fd.Name.Name
	}
	recv := "?"
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			star := ""
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
				star = "*"
			}
			if named, isNamed := t.(*types.Named); isNamed {
				recv = star + path + "." + named.Obj().Name()
			}
		}
	}
	return "(" + recv + ")." + fd.Name.Name
}

// collectConcreteTypes gathers the CHA universe: every named non-interface
// type declared at package scope in the load.
func (g *Graph) collectConcreteTypes(pkgs []*analysis.Package) {
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.concrete = append(g.concrete, named)
		}
	}
	sort.Slice(g.concrete, func(i, j int) bool {
		return fullTypeName(g.concrete[i]) < fullTypeName(g.concrete[j])
	})
}

func fullTypeName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// implementers resolves an interface method to the nodes of every concrete
// method in the load that implements it, sorted by name.
func (g *Graph) implementers(iface *types.Interface, method *types.Func) []*Node {
	var out []*Node
	seen := make(map[*Node]bool)
	for _, named := range g.concrete {
		// Method sets of *T include T's methods, so checking the pointer
		// type covers both value and pointer receivers.
		pt := types.NewPointer(named)
		if !types.Implements(pt, iface) {
			continue
		}
		sel := types.NewMethodSet(pt).Lookup(method.Pkg(), method.Name())
		if sel == nil {
			continue
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if n := g.byObj[fn]; n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
