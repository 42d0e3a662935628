package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/membership"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

// FuzzWireRoundTrip drives the decoder with arbitrary bytes: it must never
// panic, and any frame it accepts must re-encode canonically — encode,
// decode and encode again yield byte-identical frames. (Raw input bytes are
// not compared: a varint may arrive padded with continuation bytes.)
func FuzzWireRoundTrip(f *testing.F) {
	for _, p := range samples(f) {
		data, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, Version, byte(kindDone)})
	// Layouts Version 4 retired: a table-chunk frame (tag 20, an unknown
	// kind) and a join-ack body still carrying Version 3's trailing table
	// and chunk count (refused: a body holds its fields and nothing else).
	f.Add([]byte{6, 0, 0, 0, Version, 20, 11, 4, 6, 0})
	ack, err := Encode(membership.JoinAck{Inc: 6, Epoch: 11})
	if err != nil {
		f.Fatal(err)
	}
	ack = append(ack, 0, 6)
	ack[0] += 2
	f.Add(ack)
	for _, frame := range retiredFrames(f) {
		f.Add(frame)
	}
	for _, frame := range missingTaskFrames(f) {
		f.Add(frame)
	}
	// Inputs the decoder refuses although every field parses: a table
	// whose entries are not ascending by destination, and a body with one
	// byte after its fields.
	unsorted, err := Encode(routing.TableMsg{Round: 2, Entries: []routing.WireRoute{{Dest: 5, Dist: 1}, {Dest: 3, Dist: 2}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unsorted)
	done, err := Encode(core.DoneMsg{Job: "j1@0", Task: 1, At: 2})
	if err != nil {
		f.Fatal(err)
	}
	done = append(done, 0)
	done[0]++
	f.Add(done)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // malformed input refused: fine
		}
		first, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", p, err)
		}
		q, err := Decode(first)
		if err != nil {
			t.Fatalf("canonical encoding of %T does not decode: %v", p, err)
		}
		second, err := Encode(q)
		if err != nil {
			t.Fatalf("second re-encode of %T failed: %v", p, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding of %T is not canonical:\n  %x\n  %x", p, first, second)
		}
	})
}

// retiredFrames are frames of the kinds Version 5 retired, stamped with the
// current Version: a landmark advertisement (tag 18) and a region digest
// (tag 19), each with a zero-value and a max-field body as Version 4 laid
// them out.
func retiredFrames(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, h := range []string{
		"0d00000004120000000000000000000000",
		"0e000000041222840700000000000009400e",
		"0400000004130000",
		"0a00000004130802500100520301",
	} {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		frame[4] = Version
		out = append(out, frame)
	}
	return out
}

// TestRetiredKindsRefused: a frame of a retired kind is refused as an
// unknown kind, not decoded as whatever now holds its tag.
func TestRetiredKindsRefused(t *testing.T) {
	for _, frame := range retiredFrames(t) {
		p, err := Decode(frame)
		if err == nil || !strings.Contains(err.Error(), "unknown message kind") {
			t.Fatalf("frame %x decoded to %v, %v; want an unknown-kind refusal", frame, p, err)
		}
	}
}

// missingTaskFrames are well-framed messages about the three-task job of
// testGraph that name a task it lacks: a commit whose task-site entries
// skip task 3 (entries 1, 2, 4), and a result and a completion from task 4.
// The decoder refuses the first; the other two decode, and the receiving
// site drops them (core's TestPeerFramesNamingMissingTasksAreDropped).
func missingTaskFrames(t testing.TB) [][]byte {
	t.Helper()
	commit, err := Encode(core.CommitMsg{Job: "j3@7", Initiator: 7, Proc: 1, CodeBytes: 768,
		Graph: testGraph(t), TaskSites: []graph.NodeID{7, 2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	// The task-site entries end the frame: the last pair is (3, 7), whose
	// task is the varint byte 6; 8 makes it task 4.
	if commit[len(commit)-2] != 6 {
		t.Fatalf("commit frame %x does not end with task 3's entry", commit)
	}
	commit[len(commit)-2] = 8
	out := [][]byte{commit}
	for _, p := range []simnet.Payload{
		core.ResultMsg{Job: "j3@7", Task: 4, Bytes: 64},
		core.DoneMsg{Job: "j3@7", Task: 4, At: 17.25},
	} {
		frame, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame)
	}
	return out
}

// TestCommitTaskSitesOutOfSequenceRefused: task-site entries must name the
// tasks 1..n in order, one per task of the graph.
func TestCommitTaskSitesOutOfSequenceRefused(t *testing.T) {
	frames := missingTaskFrames(t)
	if p, err := Decode(frames[0]); err == nil || !strings.Contains(err.Error(), "names task 4") {
		t.Fatalf("commit skipping task 3 decoded to %v, %v; want a refusal naming task 4", p, err)
	}
	short, err := Encode(core.CommitMsg{Job: "j3@7", Initiator: 7, Proc: 1, Graph: testGraph(t),
		TaskSites: []graph.NodeID{7, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := Decode(short); err == nil {
		t.Fatalf("commit placing 2 of 3 tasks decoded to %v", p)
	}
	for _, frame := range frames[1:] {
		if _, err := Decode(frame); err != nil {
			t.Fatalf("frame %x refused: %v; the wire cannot know the job's size", frame, err)
		}
	}
}
