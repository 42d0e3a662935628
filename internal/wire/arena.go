package wire

import (
	"sync"

	"repro/internal/simnet"
)

// arenaChunkSize is the granularity of frame-arena growth. Chunks are
// replaced, never reused, so a new chunk is the only steady-state
// allocation: one make per ~64KB of sent frames, amortized to ~0.001
// allocations per frame at typical protocol message sizes.
const arenaChunkSize = 64 << 10

// EncodeArena amortizes the send path's encode allocations. Encode
// (AppendFrame onto nil) costs several progressive append growths per
// call; the arena instead encodes into a reused scratch buffer — zero
// allocations once grown — and copies the frame into an exact-size slice
// carved from a large chunk.
//
// Carved frames are never aliased or recycled: when a chunk is exhausted
// the arena allocates a fresh one and abandons the old, so frames stay
// valid while the clock queue and the socket writers retain them, and
// become garbage with their chunk once the last one is released. The
// zero value is ready to use; methods are safe for concurrent use.
type EncodeArena struct {
	mu      sync.Mutex
	scratch []byte
	chunk   []byte
	off     int
}

// Encode frames p like the package-level Encode, but through the arena.
// The returned slice is exactly the frame and is owned by the caller.
//
//lint:hotpath -- the transport send path encodes every outbound message through here
func (a *EncodeArena) Encode(p simnet.Payload) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, err := AppendFrame(a.scratch[:0], p)
	if err != nil {
		return nil, err
	}
	a.scratch = b[:0] // keep the grown capacity for the next frame
	n := len(b)
	if n > arenaChunkSize {
		// Jumbo frame: a dedicated allocation, not worth a chunk.
		out := make([]byte, n) //lint:allow hotalloc -- frames beyond the chunk size are rare; a dedicated copy beats doubling the chunk
		copy(out, b)
		return out, nil
	}
	if len(a.chunk)-a.off < n {
		a.chunk = make([]byte, arenaChunkSize) //lint:allow hotalloc -- chunk replacement, amortized to ~0.001 allocs/frame
		a.off = 0
	}
	out := a.chunk[a.off : a.off+n : a.off+n]
	a.off += n
	copy(out, b)
	return out, nil
}
