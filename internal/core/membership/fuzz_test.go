package membership

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzMembershipDigest checks the view's CRDT laws: any permutation (and
// duplication) of the same membership events converges every site to the
// same view, the same digest, and — because the epoch is an XOR of
// per-entry hashes — the same epoch, which must also equal a from-scratch
// recomputation over the final view. Route repair consistency across sites
// rests on exactly this: two sites that learned the same facts in
// different orders must agree on the epoch tag of their tables.
func FuzzMembershipDigest(f *testing.F) {
	f.Add([]byte{1, 1, 0, 2, 1, 1, 1, 2, 0, 2, 2, 1}, uint64(7))
	f.Add([]byte{3, 9, 1, 3, 9, 0, 3, 8, 1}, uint64(42))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		events := decodeEvents(data)
		a := New(0, nil, 5, Config{}, Hooks{})
		for _, e := range events {
			a.apply(e)
		}

		b := New(0, nil, 5, Config{}, Hooks{})
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, i := range rng.Perm(len(events)) {
			b.apply(events[i])
		}
		// Replay a random half once more: applies must be idempotent.
		for _, i := range rng.Perm(len(events))[:len(events)/2] {
			b.apply(events[i])
		}

		if a.Epoch() != b.Epoch() {
			t.Fatalf("epoch diverged under permutation: %x vs %x", a.Epoch(), b.Epoch())
		}
		da, db := a.digest(), b.digest()
		if len(da) != len(db) {
			t.Fatalf("digest length diverged: %d vs %d", len(da), len(db))
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("digest entry %d diverged: %+v vs %+v", i, da[i], db[i])
			}
		}
		var recomputed uint64
		for site, st := range a.view {
			recomputed ^= stateMix(site, st)
		}
		if recomputed != a.Epoch() {
			t.Fatalf("incremental epoch %x != recomputed %x", a.Epoch(), recomputed)
		}
	})
}

// decodeEvents turns fuzz bytes into membership events: 3 bytes each,
// (site, inc, dead), over a handful of sites so collisions are common.
func decodeEvents(data []byte) []Entry {
	const maxEvents = 64
	var out []Entry
	for i := 0; i+2 < len(data) && len(out) < maxEvents; i += 3 {
		out = append(out, Entry{
			Site: graph.NodeID(data[i] % 8),
			Inc:  uint64(data[i+1] % 8),
			Dead: data[i+2]&1 == 1,
		})
	}
	return out
}
