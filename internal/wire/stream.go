// Stream framing: the per-connection read arena and the vectored batch
// write shared by NetTransport's read and write loops. Factored out so the
// hot-path allocation profile of both sides is pinned by this package's
// tests (TestStreamAllocs), not just observed in production profiles.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// FrameReader reads length-prefixed frames off a byte stream into a
// reusable arena: one buffered reader and one frame buffer per connection,
// zero per-frame allocations once the arena has grown to the connection's
// largest frame. Safe because every payload decoder materializes copies —
// nothing downstream aliases the arena (see the decode package comment).
type FrameReader struct {
	br     *bufio.Reader
	header [4]byte
	arena  []byte
}

// NewFrameReader wraps r with the transport's standard read buffering.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Reset discards buffered state and reads subsequent frames from r,
// keeping the arena (and its grown capacity).
func (fr *FrameReader) Reset(r io.Reader) { fr.br.Reset(r) }

// Next reads one frame and returns its bytes without the length prefix
// (version, kind, body). The slice is valid only until the following Next
// call — decode before reading on. Errors (including a frame length
// outside [2, MaxFrame]) are terminal for the stream.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.br, fr.header[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.header[:]))
	if n < 2 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d outside [2, %d]", n, MaxFrame)
	}
	if cap(fr.arena) < n {
		fr.arena = make([]byte, n) //lint:allow hotalloc -- arena growth; amortized to zero once sized to the connection's largest frame
	}
	block := fr.arena[:n]
	if _, err := io.ReadFull(fr.br, block); err != nil {
		return nil, err
	}
	return block, nil
}

// WriteBatch writes a batch of frames as one vectored write (writev on a
// TCP connection — one syscall, no coalescing copy), reusing scratch's
// backing array for the net.Buffers header. WriteTo consumes its receiver
// (advancing the slice base), so the backing is snapshotted first and
// restored after — steady state allocates nothing. frames is never
// touched, so the caller can retry the batch verbatim on a fresh
// connection.
func WriteBatch(w io.Writer, scratch *net.Buffers, frames [][]byte) error {
	*scratch = append((*scratch)[:0], frames...)
	backing := *scratch
	_, err := scratch.WriteTo(w)
	*scratch = backing[:0]
	return err
}
