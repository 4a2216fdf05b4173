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

// Attribution of a runtime/pprof CPU profile to the emulator's
// layers. The profile is a gzipped profile.proto message; only the
// fields needed to walk sample stacks are decoded:
//
//	Profile  { 1 sample_type: ValueType; 2 sample: Sample; 4 location: Location;
//	           5 function: Function; 6 string_table: string }
//	ValueType{ 1 type: int64 (string index) }
//	Sample   { 1 location_id: uint64 (packed); 2 value: int64 (packed) }
//	Location { 1 id: uint64; 4 line: Line }
//	Line     { 1 function_id: uint64 }
//	Function { 1 id: uint64; 2 name: int64 (string index) }

// gcFuncs mark a sample as garbage-collector work wherever they appear
// in its stack: background marking and sweeping, and the mark assists
// and sweeps an allocating goroutine is charged.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.sweepone":       true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

// layerSeconds attributes each CPU sample to one layer and returns
// seconds per layer. A sample inside garbage collection counts as
// "go.gc". Any other sample counts toward the innermost frame that
// belongs to this module: runtime helpers (memmove, map access,
// allocation) are charged to the emulator package that called them.
// Layer names are the first path element under internal/ ("cache",
// "trace" for trace/library), "hybridmem" for the root package, and
// "other" for stacks that never enter the module.
func layerSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		sampleType []int64
		samples    [][]byte
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleType = append(sampleType, int64(v))
				}
				return nil
			})
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleType {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]float64{}
	for _, sb := range samples {
		var locs, vals []uint64
		err := fields(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = appendPacked(locs, v, b)
			case 2:
				vals = appendPacked(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(vals) {
			continue
		}
		layer, gc := "other", false
		for _, l := range locs {
			for _, f := range locLines[l] {
				name := str(funcName[f])
				if gcFuncs[name] {
					gc = true
				}
				if layer == "other" {
					if ly, ok := moduleLayer(name); ok {
						layer = ly
					}
				}
			}
		}
		if gc {
			layer = "go.gc"
		}
		out[layer] += float64(vals[cpu]) / 1e9
	}
	return out, nil
}

// moduleLayer maps a function name of this module to its layer.
func moduleLayer(fn string) (string, bool) {
	const root, internal = "repro", "repro/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		return rest[:strings.IndexAny(rest+".", "./")], true
	case strings.HasPrefix(fn, root+"."):
		return "hybridmem", true
	case strings.HasPrefix(fn, root+"/"):
		rest := fn[len(root)+1:]
		return rest[:strings.IndexAny(rest+".", "./")], true
	}
	return "", false
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v) or packed in a length-delimited blob (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field
// number and either its varint value or its length-delimited bytes
// (b is nil for varints). Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l) : n+int(l)] // non-nil even when empty
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
