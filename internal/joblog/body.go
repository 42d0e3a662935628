package joblog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// A record body is a version byte, a type byte and then every field of
// Record in declaration order, whatever the type:
//
//	version | type | ID | Seq | Tenant | ClientKey | At | Deadline | Graph | ClusterID | Outcome | DecisionLatency
//
// Strings and Graph are a uvarint length and their bytes (Graph is the
// submitted JSON, verbatim); Seq is a uvarint; At, Deadline and
// DecisionLatency are little-endian float64 bits. Any other body, such as
// the JSON-encoded Record of logs written before this layout, does not
// decode, so a log that holds one is refused (ErrCorrupt).
const bodyVersion = 1

// recordTypes are the record types by type byte: a type's byte is its index
// plus one, so a zero type byte is invalid. A checkpoint's records use the
// same layout: a TypeFolded record is one job's whole state in the fields a
// job's records fill between them, and a TypeCheckpoint record fills Seq
// and At (see RecordType).
var recordTypes = [...]RecordType{TypeSubmitted, TypeForwarded, TypeDecided, TypeCheckpoint, TypeFolded}

// typeByte is rec.Type's type byte, or 0 when it has none.
func typeByte(t RecordType) byte {
	for i, known := range recordTypes {
		if t == known {
			return byte(i + 1)
		}
	}
	return 0
}

// bodySize is the length of rec's body, computed without encoding it.
func bodySize(rec Record) int {
	return 2 + fieldSize(len(rec.ID)) + uvarintSize(rec.Seq) + fieldSize(len(rec.Tenant)) +
		fieldSize(len(rec.ClientKey)) + 8 + 8 + fieldSize(len(rec.Graph)) +
		fieldSize(len(rec.ClusterID)) + fieldSize(len(rec.Outcome)) + 8
}

func fieldSize(n int) int { return uvarintSize(uint64(n)) + n }

func uvarintSize(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// CheckSize reports an error when rec's body would exceed MaxRecord. It does
// not encode the record, so a caller can ask before it commits to a
// submission whose record the log could not hold.
func CheckSize(rec Record) error {
	if n := bodySize(rec); n > MaxRecord {
		return fmt.Errorf("joblog: record of %d bytes exceeds MaxRecord (%d)", n, MaxRecord)
	}
	return nil
}

// appendBody appends rec's body to buf. rec's type must have a type byte.
func appendBody(buf []byte, rec Record) []byte {
	buf = append(buf, bodyVersion, typeByte(rec.Type))
	buf = appendField(buf, rec.ID)
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = appendField(buf, rec.Tenant)
	buf = appendField(buf, rec.ClientKey)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.At))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Deadline))
	buf = appendField(buf, rec.Graph)
	buf = appendField(buf, rec.ClusterID)
	buf = appendField(buf, rec.Outcome)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.DecisionLatency))
}

func appendField[T ~string | ~[]byte](buf []byte, v T) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(v))), v...)
}

var (
	errShortBody = errors.New("field runs past the end of the body")
	errTrailing  = errors.New("trailing bytes after the last field")
)

// decodeBody decodes a body into rec, which must be the zero Record. It
// borrows: the strings and the graph of a binary body alias body, so they
// are valid only while body is, and whoever keeps one past that copies it
// (Record.clone, Replay.fold). Nothing is allocated for a binary body.
func decodeBody(body []byte, rec *Record) error {
	if len(body) < 2 {
		return errShortBody
	}
	if body[0] != bodyVersion {
		return fmt.Errorf("unknown body version %d", body[0])
	}
	if t := body[1]; t == 0 || int(t) > len(recordTypes) {
		return fmt.Errorf("unknown record type byte %d", t)
	}
	rec.Type = recordTypes[body[1]-1]
	d := decoder{rest: body[2:]}
	rec.ID = borrow(d.field())
	rec.Seq = d.uvarint()
	rec.Tenant = borrow(d.field())
	rec.ClientKey = borrow(d.field())
	rec.At = d.float()
	rec.Deadline = d.float()
	if g := d.field(); len(g) > 0 {
		rec.Graph = g
	}
	rec.ClusterID = borrow(d.field())
	rec.Outcome = borrow(d.field())
	rec.DecisionLatency = d.float()
	if d.err == nil && len(d.rest) > 0 {
		d.err = errTrailing
	}
	return d.err
}

// borrow is b as a string without a copy. The string aliases b: b must not
// change while the string is in use.
func borrow(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// clone is rec with its strings and graph copied, so that it outlives the
// body it was decoded from.
func (rec Record) clone() Record {
	rec.ID = strings.Clone(rec.ID)
	rec.Tenant = strings.Clone(rec.Tenant)
	rec.ClientKey = strings.Clone(rec.ClientKey)
	rec.Graph = bytes.Clone(rec.Graph)
	rec.ClusterID = strings.Clone(rec.ClusterID)
	rec.Outcome = strings.Clone(rec.Outcome)
	return rec
}

// decoder reads a body's fields front to back. Once a field runs past the
// end, err is set and every later read returns a zero value.
type decoder struct {
	rest []byte
	err  error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.rest)
	if n <= 0 {
		d.err = errShortBody // n < 0 is a varint of more than 64 bits: no writer makes one either
		return 0
	}
	d.rest = d.rest[n:]
	return v
}

// field is a length-prefixed field's bytes, aliasing the body.
func (d *decoder) field() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.rest)) {
		d.err = errShortBody
		return nil
	}
	v := d.rest[:n]
	d.rest = d.rest[n:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.rest) < 8 {
		d.err = errShortBody
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.rest))
	d.rest = d.rest[8:]
	return v
}
