package main

import "fmt"

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units (a test holds the
// two together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported for every
// workload.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"loss_ratio", "ratio"},
	{"trials_per_s", "trials/s"},
	{"bit_error_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. A metric of a layer the
// workload does not run reads 0.
var perLayer = append([]metricDef{
	{"phy.framer.ns_per_sample", "ns/sample"},
	{"core.poll.busy_share", "share"},
	{"core.detect.occurrences_per_rx", "count/rx"},
	{"core.detect.redetects_per_rx", "count/rx"},
	{"core.store.aligns_per_rx", "count/rx"},
	{"core.store.align_ok_ratio", "ratio"},
	{"core.joint.decodes_per_rx", "count/rx"},
	{"core.joint.ok_ratio", "ratio"},
	{"core.sic.chunks_per_rx", "count/rx"},
	{"core.sic.forced_share", "share"},
	{"core.deliver.duplicate_frames", "count"},
	{"core.allocs_per_frame", "allocs/frame"},
	{"core.alloc_bytes_per_frame", "B/frame"},
	{"runtime.gc_cycles_per_frame", "count/frame"},
	{"obs.events_per_rx", "count/rx"},
	{"obs.ring_dropped", "count"},
	{"obs.overhead_ratio", "ratio"},
	{"channel.render.ms_per_rx", "ms/rx"},
	{"runner.scaling_efficiency", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "share"},
	{"heap.retained_mb", "MB"},
}, cpuMetricDefs()...)

func cpuMetricDefs() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu.self." + l, "share"})
	}
	for _, e := range cpuEntries {
		defs = append(defs, metricDef{"cpu.cum." + e.name, "share"})
	}
	return defs
}

// report builds a result's metrics from measured values: every metric
// in defs must have a value, unless zeroOK lets a missing one read 0.
func report(defs []metricDef, values map[string]float64, zeroOK bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return out, nil
}

// traceResult is a traced run's result: the per-layer values measured
// plus the CPU profile's shares.
func traceResult(attempted int64, values map[string]float64, prof []byte) (*result, error) {
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		values[k] = v
	}
	ms, err := report(perLayer, values, true)
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: attempted, Metrics: ms}, nil
}
