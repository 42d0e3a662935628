// Package determinism holds the map-iteration helpers demanded by the
// mapiter analyzer (internal/analysis/mapiter): Go map iteration order is
// deliberately randomized, so any loop that ranges over a map and feeds a
// protocol decision, a wire encoding, a flood, or a float accumulation is a
// reproducibility bug waiting to happen. Routing every such walk through
// SortedKeys makes the pattern uniform — and, more importantly,
// machine-checkable: the analyzer flags raw map ranges with order-sensitive
// sinks, and the fix is always this one call.
//
// SortedKeys sorts by key with cmp.Less, so for a given map content the
// iteration order is a pure function of the keys — identical across runs,
// processes and architectures.
package determinism

import (
	"cmp"
	"sort"
)

// SortedKeys returns the map's keys in ascending order. It is the
// allocation-honest replacement for the repo's historical
// "append-keys-then-sort" idiom: same work, one name, lintable.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	if len(m) == 0 {
		return nil
	}
	keys := make([]K, 0, len(m))
	//lint:allow mapiter -- this is the sorted-keys helper itself; the append is ordered by the sort below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return cmp.Less(keys[i], keys[j]) })
	return keys
}
