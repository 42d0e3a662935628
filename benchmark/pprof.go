package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpu_share.* is the budget that sums: every sample of a runtime/pprof CPU
// profile of the child is charged to exactly one layer, the innermost frame
// of its stack that belongs to one. A sample whose leaf is in the Go runtime
// or a general-purpose library (allocation, map access, sort, fmt) is thus
// owned by the layer that called it, which is the layer an optimisation would
// have to change. A stack with no such frame is "runtime" when it is all
// runtime (the GC's background workers, the scheduler) and "other" otherwise
// (the harness's own code in the child). The profile is the gzip'd protobuf
// of github.com/google/pprof/proto/profile.proto; only the handful of fields
// needed here are decoded, so no module dependency is added.

// cpuProfile accumulates sample weight per layer across profiles.
type cpuProfile struct {
	byLayer map[string]int64
	total   int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{byLayer: make(map[string]int64)} }

func (p *cpuProfile) addFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return p.add(data)
}

// add folds one profile (gzip'd or raw protobuf) into the totals.
func (p *cpuProfile) add(data []byte) error {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		data = raw
	}
	stacks, err := decodeStacks(data)
	if err != nil {
		return err
	}
	for _, st := range stacks {
		p.byLayer[layerOfStack(st.functions)] += st.value
		p.total += st.value
	}
	return nil
}

// layerOfStack attributes one sample, given its functions leaf first.
func layerOfStack(functions []string) string {
	fallback := "runtime"
	for _, fn := range functions {
		switch l := layerOf(fn); l {
		case "runtime":
		case "other":
			fallback = "other"
		default:
			return l
		}
	}
	return fallback
}

// shares writes cpu_share.<layer> for every layer; they sum to 1 when the
// profile holds any sample.
func (p *cpuProfile) shares(m metricSet) {
	for _, l := range cpuLayers {
		if p.total > 0 {
			m["cpu_share."+l] = float64(p.byLayer[l]) / float64(p.total)
		} else {
			m["cpu_share."+l] = 0
		}
	}
}

// layerOf maps a fully qualified function name, as the profile spells it
// ("repro/internal/core.(*Site).handle", "runtime.mallocgc"), to its layer.
func layerOf(function string) string {
	pkg := function
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, l := range cpuLayers {
			if l == top {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "syscall" || pkg == "internal/poll" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	}
	return "other"
}

// stack is one sample: its functions, leaf first, and its weight.
type stack struct {
	functions []string
	value     int64
}

// decodeStacks walks a profile.proto Profile message.
func decodeStacks(data []byte) ([]stack, error) {
	type sampleRec struct {
		locs  []uint64
		value int64
	}
	var samples []sampleRec
	locFuncs := make(map[uint64][]uint64) // location id -> function ids, innermost inlined frame first
	funcName := make(map[uint64]uint64)   // function id -> string table index
	var strs []string

	err := eachField(data, func(field int, varint uint64, body []byte) error {
		switch field {
		case 2: // Sample
			var s sampleRec
			err := eachField(body, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, leaf first
					ids, err := repeatedVarint(v, b)
					if err != nil {
						return err
					}
					s.locs = append(s.locs, ids...)
				case 2: // value: the last one is the profile's default (cpu nanoseconds)
					vals, err := repeatedVarint(v, b)
					if err != nil {
						return err
					}
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.locs) > 0 {
				samples = append(samples, s)
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(body, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: the last entry is the caller the earlier ones were inlined into
					return eachField(b, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(body, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; int(idx) < len(strs) {
					st.functions = append(st.functions, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField iterates the fields of one protobuf message. Varint fields
// arrive in varint, length-delimited ones in body; fixed-width fields are
// skipped (the profile schema has none that matter here).
func eachField(data []byte, fn func(field int, varint uint64, body []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint in field %d", field)
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("pprof: short fixed64 in field %d", field)
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("pprof: bad length in field %d", field)
			}
			body := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, body); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("pprof: short fixed32 in field %d", field)
			}
			data = data[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// repeatedVarint reads a repeated integer field in either encoding: packed
// (one length-delimited body) or one varint per occurrence.
func repeatedVarint(varint uint64, body []byte) ([]uint64, error) {
	if body == nil {
		return []uint64{varint}, nil
	}
	var out []uint64
	for len(body) > 0 {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad packed varint")
		}
		out = append(out, v)
		body = body[n:]
	}
	return out, nil
}
