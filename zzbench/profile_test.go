package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// pb appends protobuf fields: a varint when v is a uint64, a
// length-delimited field when it is a []byte, a packed varint list when
// it is a []uint64.
func pb(b []byte, num int, v any) []byte {
	switch v := v.(type) {
	case uint64:
		b = binary.AppendUvarint(b, uint64(num)<<3)
		return binary.AppendUvarint(b, v)
	case []uint64:
		var packed []byte
		for _, x := range v {
			packed = binary.AppendUvarint(packed, x)
		}
		return pb(b, num, packed)
	case []byte:
		b = binary.AppendUvarint(b, uint64(num)<<3|2)
		b = binary.AppendUvarint(b, uint64(len(v)))
		return append(b, v...)
	}
	panic("pb: unsupported value")
}

// fixedProfile is a four-function CPU profile: 30 ns in kern.rotate
// inlined into core.DecodeWith, 10 ns in DetectFor called from
// DecodeWith, and 60 ns in the GC worker.
func fixedProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"zigzag/internal/core.DecodeWith", "zigzag/internal/phy.(*Synchronizer).DetectFor",
		"runtime.gcBgMarkWorker", "main.main", "zigzag/internal/dsp/kern.rotate"}
	var p []byte
	p = pb(p, 1, pb(pb(nil, 1, uint64(1)), 2, uint64(2)))
	p = pb(p, 1, pb(pb(nil, 1, uint64(3)), 2, uint64(4)))
	sample := func(locs []uint64, count, ns uint64) []byte {
		return pb(pb(nil, 1, locs), 2, []uint64{count, ns})
	}
	p = pb(p, 2, sample([]uint64{1, 3}, 3, 30))
	p = pb(p, 2, sample([]uint64{2, 1, 3}, 1, 10))
	p = pb(p, 2, sample([]uint64{4}, 6, 60))
	line := func(fn uint64) []byte { return pb(nil, 1, fn) }
	// Location 1 holds kern.rotate inlined into DecodeWith.
	p = pb(p, 4, pb(pb(pb(nil, 1, uint64(1)), 4, line(5)), 4, line(1)))
	p = pb(p, 4, pb(pb(nil, 1, uint64(2)), 4, line(2)))
	p = pb(p, 4, pb(pb(nil, 1, uint64(3)), 4, line(4)))
	p = pb(p, 4, pb(pb(nil, 1, uint64(4)), 4, line(3)))
	for id, name := range []uint64{5, 6, 7, 8, 9} {
		p = pb(p, 5, pb(pb(nil, 1, uint64(id+1)), 2, name))
	}
	for _, s := range strs {
		p = pb(p, 6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p)
	zw.Close()
	return z.Bytes()
}

func TestCPUSharesOfAFixedProfile(t *testing.T) {
	got, err := cpuShares(fixedProfile())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.self.kern": 0.3, "cpu.self.phy": 0.1, "cpu.self.runtime": 0.6, "cpu.self.core": 0,
		"cpu.cum.decode": 0.4, "cpu.cum.detect": 0.1, "cpu.cum.gc": 0.6, "cpu.cum.render": 0,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += got["cpu.self."+l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
}

func TestCPULayer(t *testing.T) {
	for fn, want := range map[string]string{
		"zigzag/internal/core.(*Receiver).Ingest":             "core",
		"zigzag/internal/dsp/kern.rotate":                     "kern",
		"zigzag/internal/dsp.Ensure":                          "dsp",
		"zigzag/internal/runner.MapLocal[go.shape.int].func1": "runner",
		"zigzag/internal/hatch.Bind":                          "other",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "runtime",
		"sort.Slice":     "std",
		"math/cmplx.Abs": "std",
		"main.drive":     "other",
		"slices.SortFunc[go.shape.[]zigzag/internal/core.kwCand]": "std",
	} {
		if got := cpuLayer(fn); got != want {
			t.Errorf("cpuLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json at the repository root
// to the metric tables here.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined here", w.Name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
