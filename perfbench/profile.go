package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file attributes CPU-profile samples to the simulator's layers.
// A sample belongs to the innermost khsim/internal/<pkg> frame on its
// stack, so standard-library work counts toward the layer that called
// it (ed25519 toward tz, map inserts toward hafnium). Stacks with no
// simulator frame belong to the GC when a GC worker runs them, and to
// "other" (the benchmark itself, the scheduler) otherwise.

const internalPrefix = "khsim/internal/"

// layerAlias folds packages into the layer they implement: the shared
// kernel substrate and both kernels built on it form one kernel layer.
var layerAlias = map[string]string{"kitten": "kernel", "linuxos": "kernel"}

// gcWorkers are the runtime's background collector entry points.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// stackSample is one profile sample: its frames, innermost first, and
// its weight in samples.
type stackSample struct {
	Frames []string
	Count  int64
}

// layerOf names the layer a stack belongs to.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if a, ok := layerAlias[pkg]; ok {
				return a
			}
			return pkg
		}
	}
	for _, f := range frames {
		for _, w := range gcWorkers {
			if f == w {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// attribute sums sample weights per layer.
func attribute(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.Frames)] += s.Count
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) into stack samples. Only the fields attribution
// needs are read: samples, locations, functions and the string table.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			first := true
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := packedOrOne(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := packedOrOne(w, v, b)
					if first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stackSample{Frames: frames, Count: s.count})
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", field)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", field)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// packedOrOne reads a repeated varint field in either encoding.
func packedOrOne(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
