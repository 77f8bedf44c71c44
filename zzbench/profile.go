package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the cpu.self.<layer> metrics: the repository's packages
// that these workloads run, the Go runtime, the rest of the standard
// library, and everything else (this benchmark's own code).
var cpuLayers = []string{
	"core", "phy", "dsp", "fft", "kern", "channel", "impair", "modem", "frame", "bitutil",
	"session", "runner", "metrics", "obs", "serve", "experiments",
	"runtime", "std", "other",
}

// cpuEntries are the cpu.cum.<name> metrics: the share of samples with
// the named function anywhere on the stack.
var cpuEntries = []struct{ name, fn string }{
	{"detect", "zigzag/internal/phy.(*Synchronizer).DetectFor"},
	{"decode", "zigzag/internal/core.DecodeWith"},
	{"render", "zigzag/internal/channel.(*Air).MixInto"},
	{"impair", "zigzag/internal/impair.(*Chain).ImpairEmissions"},
	{"gc", "runtime.gcBgMarkWorker"},
}

// profileCPU runs fn under the CPU profiler and returns the profile
// (gzipped profile.proto). When dir is not empty the profile is also
// written there as <name>.pprof.
func profileCPU(dir, name string, fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("writing CPU profile: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".pprof"), buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("writing CPU profile: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// cpuShares aggregates a CPU profile into the cpu.self.* and cpu.cum.*
// metrics, weighting each sample by its CPU time. Self shares are
// additive: every sample's leaf function belongs to exactly one layer.
func cpuShares(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	self := make(map[string]int64)
	cum := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.stack) == 0 {
			continue
		}
		total += s.weight
		self[cpuLayer(s.stack[0])] += s.weight
		for _, e := range cpuEntries {
			for _, fn := range s.stack {
				if fn == e.fn {
					cum[e.name] += s.weight
					break
				}
			}
		}
	}
	out := make(map[string]float64)
	for _, l := range cpuLayers {
		out["cpu.self."+l] = ratio(float64(self[l]), float64(total))
	}
	for _, e := range cpuEntries {
		out["cpu.cum."+e.name] = ratio(float64(cum[e.name]), float64(total))
	}
	return out, nil
}

// cpuLayer names the layer a function belongs to, by its package.
func cpuLayer(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "zigzag/internal/"):
		l := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, known := range cpuLayers {
			if l == known {
				return l
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main" || strings.HasPrefix(pkg, "zigzag/"):
		return "other" // this benchmark
	}
	return "std"
}

// packageOf returns the import path of a Go symbol name such as
// "zigzag/internal/core.(*Receiver).Ingest" or "sort.Slice[...]": the
// text up to the first dot after the last slash, ignoring any type
// arguments.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of a profile.proto message the aggregation
// needs: each sample's stack of function names, leaf first, and its
// weight.
type profile struct {
	samples []profileSample
}

type profileSample struct {
	stack  []string
	weight int64
}

// parseProfile decodes a gzipped (or plain) profile.proto message. The
// weight of a sample is its value of type "cpu" (the last value when no
// sample type is named so).
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		valueTypes []int64 // string index of each sample type's type
		locLines   = map[uint64][]uint64{}
		funcNames  = map[uint64]int64{}
		strs       []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
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
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	p := &profile{}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(s.values), vi)
		}
		ps := profileSample{weight: s.values[vi]}
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined
			// function out to its caller.
			for _, f := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, calling fn with
// each field's number, wire type, and its varint or fixed value (v) or
// its length-delimited bytes (b).
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
