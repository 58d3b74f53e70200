package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// moduleLayer maps each vpp/internal module to the layer it is charged
// to. Modules not listed (analyzers, debugging aids) count as "other".
var moduleLayer = map[string]string{
	"sim":       "sim",
	"hw":        "hw",
	"pagetable": "hw",
	"ckdev":     "hw",
	"ck":        "ck",
	"srm":       "appk",
	"aklib":     "appk",
	"unixemu":   "appk",
	"rtk":       "appk",
	"dsm":       "appk",
	"netboot":   "appk",
	"dbk":       "appk",
	"simk":      "appk",
	"simtest":   "simtest",
	"snap":      "snap",
	"ckctl":     "ckctl",
	"chaos":     "chaos",
	"exp":       "exp",
}

const internalPrefix = "vpp/internal/"

// layerOf names the layer a stack is charged to, given its function names
// innermost first: the layer of the innermost vpp/internal frame; else
// "runtime" for a stack of the Go runtime alone (GC workers, the
// scheduler); else "other" (the benchmark's own code).
func layerOf(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, internalPrefix) {
			continue
		}
		mod := f[len(internalPrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		if l, ok := moduleLayer[mod]; ok {
			return l
		}
		return "other"
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "runtime/") {
			return "other"
		}
	}
	return "runtime"
}

// profile is the part of a runtime/pprof profile that layer attribution
// reads.
type profile struct {
	types   []string // sample value types, e.g. "cpu", "alloc_space"
	samples []pSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]string   // function id -> name
}

type pSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels map[string]string
}

// byLayer sums sample values of the given type per layer, leaving out
// samples labelled skipKey=skipVal.
func (p *profile) byLayer(valueType, skipKey, skipVal string) (map[string]int64, error) {
	vi := -1
	for i, t := range p.types {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q values (has %v)", valueType, p.types)
	}
	out := map[string]int64{}
	var frames []string
	for _, s := range p.samples {
		if skipKey != "" && s.labels[skipKey] == skipVal {
			continue
		}
		frames = frames[:0]
		for _, l := range s.locs {
			for _, fn := range p.locs[l] {
				frames = append(frames, p.funcs[fn])
			}
		}
		out[layerOf(frames)] += s.values[vi]
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed profile.proto message as
// runtime/pprof writes it, with the standard library alone.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var (
		strs      []string
		typeIdx   []uint64
		fnNameIdx = map[uint64]uint64{}
		labelIdx  [][][2]uint64 // per sample: (key, str) string indexes
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s pSample
			var labels [][2]uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]uint64
					err := fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = v
						}
						return nil
					})
					labels = append(labels, kv)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			labelIdx = append(labelIdx, labels)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for id, i := range fnNameIdx {
		p.funcs[id] = str(i)
	}
	for i, labels := range labelIdx {
		if len(labels) == 0 {
			continue
		}
		p.samples[i].labels = map[string]string{}
		for _, kv := range labels {
			p.samples[i].labels[str(kv[0])] = str(kv[1])
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the top-level fields of one protobuf message, calling f
// with each field number and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (b) or not (v).
func varints(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
