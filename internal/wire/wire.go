// Package wire is the network protocol layer of the multi-process
// deployment: a versioned, length-prefixed binary codec for every RTDS
// protocol message, and a TCP transport (NetTransport) implementing
// simnet.Transport so the unchanged protocol core runs between real
// operating-system processes.
//
// # Frame format
//
// Every message travels as one frame:
//
//	| u32 length (LE) | u8 version | u8 kind | body... |
//
// length counts everything after itself (version, kind and body). The
// version byte is bumped on incompatible changes; a decoder refuses frames
// from a different major version. Within a version the format is
// forward-compatible by construction: decoders read the fields they know
// and ignore trailing bytes, so a newer peer may append fields to any
// message body without breaking an older one.
//
// Body encoding uses three primitives: zig-zag varints for integers,
// 8-byte little-endian IEEE 754 for floats, and uvarint-length-prefixed
// bytes for strings. Sequences are uvarint counts followed by the elements;
// maps are encoded sorted by key so encoding is deterministic.
package wire

import "fmt"

// Version is the wire format version carried in every frame. Version 2
// added the membership layer: the epoch tag in routing-table bodies and
// the heartbeat/notice/join message kinds. Version 3 added hierarchical
// routing: the landmark-advertisement, region-digest and table-chunk
// kinds, and the chunk count in join-ack bodies.
const Version = 3

// MaxFrame bounds a frame's encoded size. The largest legitimate frames are
// commit messages carrying a job DAG — well under a mebibyte — so anything
// bigger is a corrupt length prefix, and refusing it keeps a garbage
// connection from forcing a huge allocation.
const MaxFrame = 1 << 20

// MaxJobJSON bounds the JSON body of a job submission (the gateway's POST
// /v1/jobs, a node's POST /submit). A task or an edge costs at least 10
// bytes of a frame (two varints and a float64) and at most ~70 of compact
// dag JSON, so a graph that fits MaxFrame fits inside 8× with room for
// indentation and the envelope; a larger body cannot carry an admissible
// job and is refused without being buffered.
const MaxJobJSON = 8 * MaxFrame

// Kind tags a frame's payload type. New kinds append at the end: the tag
// value is wire format. Every switch over Kind must be exhaustive (the
// exhaustive analyzer enforces it), so adding a kind fails lint at every
// dispatch site until it is handled.
type Kind byte

// Message kinds. Kind 0 is reserved for the transport's hello frame, which
// identifies the dialing site and never reaches the protocol layer.
const (
	kindHello Kind = iota
	kindRouted
	kindTable
	kindEnrollReq
	kindEnrollAck
	kindValidateReq
	kindValidateAck
	kindCommit
	kindCommitAck
	kindUnlock
	kindUnlockAck
	kindResult
	kindDone
	kindHeartbeat
	kindDead
	kindAlive
	kindJoinReq
	kindJoinAck
	kindLandmarkAd
	kindRegionDigest
	kindTableChunk
)

// String names the kind for diagnostics. Hand-written because the build is
// offline (no stringer); the switch is deliberately default-free so the
// exhaustive analyzer forces an update here when a kind is added.
func (k Kind) String() string {
	switch k {
	case kindHello:
		return "hello"
	case kindRouted:
		return "routed"
	case kindTable:
		return "table"
	case kindEnrollReq:
		return "enroll-req"
	case kindEnrollAck:
		return "enroll-ack"
	case kindValidateReq:
		return "validate-req"
	case kindValidateAck:
		return "validate-ack"
	case kindCommit:
		return "commit"
	case kindCommitAck:
		return "commit-ack"
	case kindUnlock:
		return "unlock"
	case kindUnlockAck:
		return "unlock-ack"
	case kindResult:
		return "result"
	case kindDone:
		return "done"
	case kindHeartbeat:
		return "heartbeat"
	case kindDead:
		return "dead"
	case kindAlive:
		return "alive"
	case kindJoinReq:
		return "join-req"
	case kindJoinAck:
		return "join-ack"
	case kindLandmarkAd:
		return "landmark-ad"
	case kindRegionDigest:
		return "region-digest"
	case kindTableChunk:
		return "table-chunk"
	}
	return fmt.Sprintf("Kind(%d)", byte(k))
}

// headerLen is the fixed frame overhead: u32 length + version + kind.
const headerLen = 4 + 1 + 1
