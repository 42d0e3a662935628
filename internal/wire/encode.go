package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/dag"
	"repro/internal/determinism"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/hier"
	"repro/internal/simnet"
)

// Encode frames a protocol payload: every payload type exchanged by RTDS
// sites — the Routed multi-hop wrapper, the PCS bootstrap tables and the
// ten core protocol messages — has a stable kind tag and a hand-rolled
// body encoding (see the package comment for the format).
//
//lint:hotpath -- every sent message passes through here; only the output frame itself may allocate
func Encode(p simnet.Payload) ([]byte, error) {
	// Presized to cover the core protocol messages in one allocation;
	// bigger payloads (bootstrap tables, commit graphs) grow as needed.
	// The transport send path avoids even this via EncodeArena.
	//lint:allow hotalloc -- Encode's contract is a fresh frame; the hot send path uses EncodeArena instead
	return AppendFrame(make([]byte, 0, 128), p)
}

// AppendFrame appends the framed encoding of p to buf and returns the
// extended slice. Unknown payload types are an error: a payload that cannot
// cross the wire must fail loudly at the sender, not vanish.
//
//lint:hotpath -- the zero-extra-allocation encode entry point: with a warm buf it must not allocate at all
func AppendFrame(buf []byte, p simnet.Payload) ([]byte, error) {
	e := enc{b: buf}
	// Reserve the length prefix; patched after the body is known.
	start := len(e.b)
	e.b = append(e.b, 0, 0, 0, 0)
	e.u8(Version)
	if err := encodePayload(&e, p); err != nil {
		return buf, err
	}
	n := len(e.b) - start - 4
	if n > MaxFrame {
		return buf, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", n)
	}
	e.b[start] = byte(n)
	e.b[start+1] = byte(n >> 8)
	e.b[start+2] = byte(n >> 16)
	e.b[start+3] = byte(n >> 24)
	return e.b, nil
}

func encodePayload(e *enc, p simnet.Payload) error {
	switch m := p.(type) {
	case core.Routed:
		if m.RoutedHeader == nil {
			return fmt.Errorf("wire: routed payload without a header (the zero core.Routed)")
		}
		e.kind(kindRouted)
		e.varint(int64(m.Src))
		e.varint(int64(m.Dest))
		e.varint(int64(m.TTL))
		// The inner payload extends to the end of the frame: one routed
		// message carries exactly one protocol message.
		return encodePayload(e, m.Inner)
	case routing.TableMsg:
		e.kind(kindTable)
		e.varint(int64(m.Round))
		e.uvarint(m.Epoch)
		encodeRoutes(e, m.Entries)
	case core.EnrollReq:
		e.kind(kindEnrollReq)
		e.str(m.Job)
		e.varint(int64(m.Initiator))
		e.f64(m.Window)
	case core.EnrollAck:
		e.kind(kindEnrollAck)
		e.str(m.Job)
		e.varint(int64(m.Member))
		e.f64(m.Surplus)
		e.f64(m.Power)
		e.uvarint(uint64(len(m.Dists)))
		for _, d := range m.Dists {
			e.varint(int64(d.Dest))
			e.f64(d.Dist)
		}
	case core.ValidateReq:
		e.kind(kindValidateReq)
		e.str(m.Job)
		e.varint(int64(m.Initiator))
		e.varint(int64(m.NumProcs))
		e.uvarint(uint64(len(m.Windows)))
		for _, wins := range m.Windows {
			e.uvarint(uint64(len(wins)))
			for _, w := range wins {
				e.varint(int64(w.Task))
				e.f64(w.Complexity)
				e.f64(w.Release)
				e.f64(w.Deadline)
			}
		}
	case core.ValidateAck:
		e.kind(kindValidateAck)
		e.str(m.Job)
		e.varint(int64(m.Member))
		e.uvarint(uint64(len(m.Endorsable)))
		for _, proc := range m.Endorsable {
			e.varint(int64(proc))
		}
	case core.CommitMsg:
		e.kind(kindCommit)
		e.str(m.Job)
		e.varint(int64(m.Initiator))
		e.varint(int64(m.Proc))
		e.varint(int64(m.CodeBytes))
		if m.Graph == nil {
			e.bool(false)
		} else {
			e.bool(true)
			encodeGraph(e, m.Graph)
		}
		e.uvarint(uint64(len(m.TaskSites)))
		for _, task := range sortedTaskIDs(m.TaskSites) {
			e.varint(int64(task))
			e.varint(int64(m.TaskSites[task]))
		}
	case core.CommitAck:
		e.kind(kindCommitAck)
		e.str(m.Job)
		e.varint(int64(m.Member))
		e.bool(m.OK)
	case core.UnlockMsg:
		e.kind(kindUnlock)
		e.str(m.Job)
		e.varint(int64(m.From))
		e.bool(m.Abort)
	case core.UnlockAck:
		e.kind(kindUnlockAck)
		e.str(m.Job)
		e.varint(int64(m.Member))
	case core.ResultMsg:
		e.kind(kindResult)
		e.str(m.Job)
		e.varint(int64(m.Task))
		e.varint(int64(m.For))
		e.varint(int64(m.Bytes))
	case core.DoneMsg:
		e.kind(kindDone)
		e.str(m.Job)
		e.varint(int64(m.Task))
		e.f64(m.At)
	case membership.Heartbeat:
		e.kind(kindHeartbeat)
		e.uvarint(m.Inc)
		encodeEntries(e, m.Digest)
	case membership.DeadNotice:
		e.kind(kindDead)
		e.varint(int64(m.Site))
		e.uvarint(m.Inc)
	case membership.AliveNotice:
		e.kind(kindAlive)
		e.varint(int64(m.Site))
		e.uvarint(m.Inc)
	case membership.JoinReq:
		e.kind(kindJoinReq)
		e.uvarint(m.Inc)
	case membership.JoinAck:
		e.kind(kindJoinAck)
		e.uvarint(m.Inc)
		e.uvarint(m.Epoch)
		encodeEntries(e, m.Digest)
		encodeRoutes(e, m.Table)
		e.varint(int64(m.TableChunks))
	case membership.TableChunk:
		e.kind(kindTableChunk)
		e.uvarint(m.Epoch)
		e.varint(int64(m.Seq))
		e.varint(int64(m.Total))
		encodeRoutes(e, m.Entries)
	case membership.RegionDigest:
		e.kind(kindRegionDigest)
		e.varint(int64(m.Region))
		encodeEntries(e, m.Digest)
	case hier.LandmarkAd:
		e.kind(kindLandmarkAd)
		e.varint(int64(m.Region))
		e.varint(int64(m.Landmark))
		e.f64(m.Dist)
		e.varint(int64(m.Hops))
	default:
		return fmt.Errorf("wire: cannot encode payload type %T (kind %q)", p, p.Kind())
	}
	return nil
}

// encodeGraph writes a job DAG: window, tasks and edges with data volumes.
// The builder-facing decode re-validates everything (acyclicity, positive
// complexities), so a forged graph cannot enter the scheduler.
func encodeGraph(e *enc, g *dag.Graph) {
	e.str(g.Name)
	e.f64(g.Release)
	e.f64(g.Deadline)
	tasks := g.Tasks()
	e.uvarint(uint64(len(tasks)))
	for _, t := range tasks {
		e.varint(int64(t.ID))
		e.f64(t.Complexity)
		e.str(t.Label)
	}
	e.uvarint(uint64(g.NumEdges()))
	for _, t := range tasks {
		for _, s := range g.Successors(t.ID) {
			e.varint(int64(t.ID))
			e.varint(int64(s))
			e.f64(g.EdgeVolume(t.ID, s))
		}
	}
}

// encodeRoutes writes a routing-table snapshot (already sorted by
// destination — Table.Snapshot is deterministic). Shared by bootstrap and
// repair table messages and the join-ack table handover.
func encodeRoutes(e *enc, routes []routing.WireRoute) {
	e.uvarint(uint64(len(routes)))
	for _, r := range routes {
		e.varint(int64(r.Dest))
		e.f64(r.Dist)
		e.varint(int64(r.PathHops))
		e.varint(int64(r.MinHops))
	}
}

// encodeEntries writes a membership digest (already sorted by site — the
// manager builds digests deterministically).
func encodeEntries(e *enc, entries []membership.Entry) {
	e.uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.varint(int64(en.Site))
		e.uvarint(en.Inc)
		e.bool(en.Dead)
	}
}

func sortedTaskIDs(m map[dag.TaskID]graph.NodeID) []dag.TaskID {
	return determinism.SortedKeys(m)
}

// enc is an append-only encoder over a byte slice.
type enc struct{ b []byte }

func (e *enc) u8(v byte)        { e.b = append(e.b, v) }
func (e *enc) kind(k Kind)      { e.b = append(e.b, byte(k)) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
