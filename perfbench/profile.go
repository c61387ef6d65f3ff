package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers maps a per-layer CPU-share metric to the function-name
// prefixes that attribute a sample to it: a sample counts when any frame
// of its stack (inlined frames included) matches.
var cpuLayers = map[string][]string{
	"taskgraph.build_cpu_share":          {"flexflow/internal/taskgraph.Build"},
	"taskgraph.replace_config_cpu_share": {"flexflow/internal/taskgraph.(*TaskGraph).ReplaceConfig"},
	"sim.apply_delta_cpu_share":          {"flexflow/internal/sim.(*State).ApplyDelta"},
	"runtime.alloc_gc_cpu_share": {
		"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	},
}

// profileShares runs f under the CPU profiler and sets, for every entry
// of cpuLayers, the share of sampled CPU time attributed to it.
func profileShares(b *bench, f func()) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		b.failf("cpu profile: %v", err)
		f()
		return
	}
	f()
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		b.failf("cpu profile: %v", err)
	}
	for name := range cpuLayers {
		b.set(name, shares[name])
	}
}

// cpuShares decodes a gzipped pprof CPU profile and attributes its
// sampled CPU time to the cpuLayers entries.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	fnName := map[uint64]string{}
	for id, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(p.strings))
		}
		fnName[id] = p.strings[idx]
	}
	var total float64
	hit := map[string]float64{}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		total += v
		for layer, prefixes := range cpuLayers {
			if stackMatches(p, fnName, s.locs, prefixes) {
				hit[layer] += v
			}
		}
	}
	out := map[string]float64{}
	for layer := range cpuLayers {
		out[layer] = ratio(hit[layer], total)
	}
	return out, nil
}

func stackMatches(p *profile, fnName map[uint64]string, locs []uint64, prefixes []string) bool {
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			for _, pre := range prefixes {
				if strings.HasPrefix(fnName[fn], pre) {
					return true
				}
			}
		}
	}
	return false
}

// profile is the subset of the pprof protobuf (profile.proto) the share
// attribution needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> string-table index
	locFuncs map[uint64][]uint64 // location id -> function ids, inlined frames first
	samples  []sample
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the fields of profile.proto that name functions
// and carry samples: Profile.sample (2), location (4), function (5) and
// string_table (6); every other field is skipped.
func decodeProfile(data []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err := eachField(data, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(sub, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, packed)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field's values, given either
// one unpacked value (packed == nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (sub == nil) or its
// length-delimited payload. Fixed-width fields are skipped.
func eachField(data []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(data) < w {
				return errors.New("truncated fixed field")
			}
			data = data[w:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			sub := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
