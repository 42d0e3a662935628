// Seeded hot-path allocations: one per classifier direction, plus the
// negatives (stack allocation, unreachable code) that must stay silent.
package hot

import "fmt"

var sink string

//lint:hotpath -- fixture: the encode loop must stay allocation-free
func encode(v uint64, n int) []byte {
	buf := make([]byte, n) // want `hot-path allocation \(make \[\]byte\) reachable from hot\.encode`
	for i := range buf {
		buf[i] = byte(v >> (8 * uint(i%8)))
	}
	helper(buf)
	return buf
}

// helper is hot only because encode calls it: the finding is
// interprocedural.
func helper(b []byte) {
	_ = append([]byte{}, b...) // want `hot-path allocation \(append to fresh slice\) reachable from hot\.encode`
}

// cold allocates the same way but is reachable from no root: silent.
func cold(b []byte) []byte {
	return append([]byte{}, b...)
}

//lint:hotpath -- fixture: formatting is never allocation-free
func render(v uint64) {
	sink = fmt.Sprintf("%d", v) // want `hot-path allocation \(fmt\.Sprintf\) reachable from hot\.render`
}

//lint:hotpath -- fixture: constant-size locals stay on the stack
func stackOnly() int {
	tmp := make([]byte, 8) // compiler clears it: silent
	tmp[0] = 1
	return int(tmp[0])
}

//lint:hotpath -- fixture: the classifier-gap direction must fire too
func concat(a, b string) {
	sink = a + b // want `compiler reports .* but hotalloc has no allocation candidate`
}

type taker interface{ take() }

type pair struct{ a, b int }

func (pair) take() {}

type node struct{ next *node }

func (*node) take() {}

var held taker

func keep(t taker) { held = t }

type post struct{ t taker }

var posted *post

// enqueue inlines, so the compiler reports its allocation on the caller's
// line too: there the pointer argument must not be taken for the cause.
func enqueue(t taker) {
	posted = &post{t} // want `hot-path allocation \(composite literal\) reachable from hot\.boxing`
}

//lint:hotpath -- fixture: a struct passed as an interface is boxed; a pointer is the interface's data word
func boxing(p pair, n *node) {
	keep(p)    // want `hot-path allocation \(interface boxing\) reachable from hot\.boxing`
	keep(n)    // pointer-shaped: silent
	enqueue(n) // want `compiler reports .* but hotalloc has no allocation candidate`
}
