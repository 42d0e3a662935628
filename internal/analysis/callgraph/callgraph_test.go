package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// buildSrc type-checks one source string as package p and builds its graph.
func buildSrc(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	exports := map[string]string{}
	if len(f.Imports) > 0 {
		var imports []string
		for _, imp := range f.Imports {
			imports = append(imports, strings.Trim(imp.Path.Value, `"`))
		}
		found, err := analysis.ListExports(".", imports)
		if err != nil {
			t.Fatalf("exports: %v", err)
		}
		exports = found
	}
	pkg, err := analysis.TypecheckStandalone(fset, []*ast.File{f}, exports)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Build(fset, []*analysis.Package{pkg})
}

func nodeByName(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	var names []string
	for _, n := range g.Nodes {
		names = append(names, n.Name)
	}
	t.Fatalf("no node %q (have %v)", name, names)
	return nil
}

// edges renders a node's outgoing edges as "ctx:callee" strings.
func edges(n *Node) []string {
	var out []string
	for _, e := range n.Out {
		s := e.Ctx.String() + ":" + e.Callee.Name
		if e.Dynamic {
			s = "dyn/" + s
		}
		out = append(out, s)
	}
	return out
}

func wantEdge(t *testing.T, n *Node, want string) {
	t.Helper()
	for _, have := range edges(n) {
		if have == want {
			return
		}
	}
	t.Errorf("%s: missing edge %q; have %v", n.Name, want, edges(n))
}

func TestStaticCallAndRecursion(t *testing.T) {
	g := buildSrc(t, `package p
func a() { b() }
func b() { a(); b() }
`)
	wantEdge(t, nodeByName(t, g, "p.a"), "call:p.b")
	b := nodeByName(t, g, "p.b")
	wantEdge(t, b, "call:p.a")
	wantEdge(t, b, "call:p.b") // self-recursion

	// Recursion must not hang the fixpoint and acquires stay empty.
	acq := g.TransitiveAcquires()
	if len(acq[b]) != 0 {
		t.Errorf("b acquires %v, want none", acq[b])
	}
}

func TestInterfaceDispatchCHA(t *testing.T) {
	g := buildSrc(t, `package p
type doer interface{ do() }
type x struct{}
func (x) do() {}
type y struct{}
func (*y) do() {}
type notDoer struct{}
func (notDoer) other() {}
func run(d doer) { d.do() }
`)
	run := nodeByName(t, g, "p.run")
	wantEdge(t, run, "dyn/call:(p.x).do")
	wantEdge(t, run, "dyn/call:(*p.y).do")
	if len(run.Out) != 2 {
		t.Errorf("run has %v, want exactly the two implementers", edges(run))
	}
	// CHA fan-out is name-sorted at one site for deterministic output.
	if run.Out[0].Callee.Name > run.Out[1].Callee.Name {
		t.Errorf("fan-out not sorted: %v", edges(run))
	}
}

func TestMethodValuesAndFuncValues(t *testing.T) {
	g := buildSrc(t, `package p
type s struct{}
func (s) m() {}
func helper() {}
func take(f func()) { f() }
func use(v s) {
	f := v.m   // method value
	f()        // dynamic: no edge, but the ref above covers it
	take(helper) // func value passed along
}
`)
	use := nodeByName(t, g, "p.use")
	wantEdge(t, use, "ref:(p.s).m")
	wantEdge(t, use, "call:p.take")
	wantEdge(t, use, "ref:p.helper")
}

func TestMethodExpression(t *testing.T) {
	g := buildSrc(t, `package p
type s struct{}
func (s) m() {}
func use(v s) { s.m(v) }
`)
	wantEdge(t, nodeByName(t, g, "p.use"), "call:(p.s).m")
}

func TestFuncLitsAreSeparateNodes(t *testing.T) {
	g := buildSrc(t, `package p
import "sync"
type s struct{ mu sync.Mutex }
func (v *s) work(after func(func())) {
	v.mu.Lock()
	func() { inner() }() // immediately invoked: call edge
	after(func() { inner() }) // handed off: ref edge, no held locks
	v.mu.Unlock()
}
func inner() {}
`)
	work := nodeByName(t, g, "(*p.s).work")
	wantEdge(t, work, "call:(*p.s).work$1")
	wantEdge(t, work, "ref:(*p.s).work$2")

	// The immediately-invoked literal runs under the lock...
	for _, e := range work.Out {
		if e.Callee.Name == "(*p.s).work$1" && e.Ctx == Call {
			if len(e.Held) != 1 || e.Held[0] != "p.s.mu" {
				t.Errorf("invoked literal held = %v, want [p.s.mu]", e.Held)
			}
		}
	}
	// ...but the literal's own body starts lock-free, and its call to
	// inner carries no held set.
	lit1 := nodeByName(t, g, "(*p.s).work$1")
	wantEdge(t, lit1, "call:p.inner")
	if len(lit1.Out[0].Held) != 0 {
		t.Errorf("literal body inherited held set %v", lit1.Out[0].Held)
	}
}

func TestLockSummaries(t *testing.T) {
	g := buildSrc(t, `package p
import "sync"
type a struct{ mu sync.Mutex }
type b struct{ mu sync.RWMutex }
func outer(x *a, y *b) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.RLock()
	y.mu.RUnlock()
}
`)
	outer := nodeByName(t, g, "p.outer")
	if len(outer.Acquires) != 2 {
		t.Fatalf("acquires = %+v, want 2", outer.Acquires)
	}
	first, second := outer.Acquires[0], outer.Acquires[1]
	if first.Class != "p.a.mu" || len(first.Held) != 0 {
		t.Errorf("first acquire = %+v, want p.a.mu with nothing held", first)
	}
	if second.Class != "p.b.mu" || !second.Read {
		t.Errorf("second acquire = %+v, want read-lock of p.b.mu", second)
	}
	// The deferred Unlock keeps x.mu held, so the RLock happens under it.
	if len(second.Held) != 1 || second.Held[0] != "p.a.mu" {
		t.Errorf("second acquire held = %v, want [p.a.mu]", second.Held)
	}
}

func TestGoAndDeferEdges(t *testing.T) {
	g := buildSrc(t, `package p
import "sync"
type s struct{ mu sync.Mutex }
func (v *s) run() {
	v.mu.Lock()
	go spawned()
	defer cleanup()
	v.mu.Unlock()
}
func spawned() {}
func cleanup() {}
`)
	run := nodeByName(t, g, "(*p.s).run")
	wantEdge(t, run, "go:p.spawned")
	wantEdge(t, run, "defer:p.cleanup")
	if len(run.Spawns) != 1 {
		t.Fatalf("spawns = %d, want 1", len(run.Spawns))
	}
	for _, e := range run.Out {
		// Neither a spawned nor a deferred callee inherits held locks.
		if len(e.Held) != 0 {
			t.Errorf("%s edge carries held set %v", e.Ctx, e.Held)
		}
		if e.Ctx == Go && e.GoStmt == nil {
			t.Errorf("go edge lost its GoStmt")
		}
	}
}

func TestTransitiveAcquires(t *testing.T) {
	g := buildSrc(t, `package p
import "sync"
var gmu sync.Mutex
type s struct{ mu sync.Mutex }
func leaf() { gmu.Lock(); gmu.Unlock() }
func mid(v *s) { v.mu.Lock(); defer v.mu.Unlock(); leaf() }
func top(v *s) { mid(v) }
`)
	acq := g.TransitiveAcquires()
	top := nodeByName(t, g, "p.top")
	want := []string{"p.gmu", "p.s.mu"}
	got := acq[top]
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("top transitively acquires %v, want %v", got, want)
	}
}

func TestReachable(t *testing.T) {
	g := buildSrc(t, `package p
func root() { a(); go b() }
func a() {}
func b() { c() }
func c() {}
func island() {}
`)
	root := nodeByName(t, g, "p.root")
	all := g.Reachable([]*Node{root}, nil)
	for _, name := range []string{"p.root", "p.a", "p.b", "p.c"} {
		if !all[nodeByName(t, g, name)] {
			t.Errorf("%s not reachable", name)
		}
	}
	if all[nodeByName(t, g, "p.island")] {
		t.Errorf("island falsely reachable")
	}
	// Following only synchronous calls must stop at the go statement.
	sync := g.Reachable([]*Node{root}, func(e *Edge) bool { return e.Ctx == Call })
	if sync[nodeByName(t, g, "p.b")] {
		t.Errorf("spawned callee reachable through Call-only filter")
	}
}

func TestPackageLevelMutexClass(t *testing.T) {
	g := buildSrc(t, `package p
import "sync"
var mu sync.Mutex
func f() { mu.Lock(); mu.Unlock() }
`)
	f := nodeByName(t, g, "p.f")
	if len(f.Acquires) != 1 || f.Acquires[0].Class != "p.mu" {
		t.Errorf("acquires = %+v, want package-level class p.mu", f.Acquires)
	}
}

// TestNodePos: a declared function's node sits at its func keyword, a
// literal's at its own func keyword.
func TestNodePos(t *testing.T) {
	g := buildSrc(t, `package p

func outer() {
	_ = func() {}
}
`)
	for name, want := range map[string]string{"p.outer": "p.go:3:1", "p.outer$1": "p.go:4:6"} {
		if got := g.Fset.Position(nodeByName(t, g, name).Pos()).String(); got != want {
			t.Errorf("%s at %s, want %s", name, got, want)
		}
	}
}
