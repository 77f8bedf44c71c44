package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"zigzag/internal/core"
	"zigzag/internal/obs"
	"zigzag/internal/phy"
	"zigzag/internal/serve"
)

// The obs leg of -check guards the structured observability layer:
//
//  1. Identity: the serve gate's workload runs unobserved, fully
//     observed (fresh registry + event ring), and with the no-obs hatch
//     forced while observers are configured. All three frame digests
//     must match — observation must never perturb the decode — and the
//     hatch-disabled run must register no metrics at all.
//  2. Reconciliation: after the observed run, every exported counter
//     must equal the corresponding final-report field exactly, and the
//     latency histogram must carry the same count and quantiles as the
//     report's sketch (both fold the identical values at the same
//     sketch accuracy).
//  3. Allocation pin: with no observer attached (the disabled path —
//     every instrumented site guards on a nil check), a steady-state
//     ingest→poll cycle on a quiet-junk stream allocates exactly zero.
//     The same op with a ring sink attached is reported alongside (the
//     alloc-free event kinds keep even the enabled path at zero).
//  4. Calibrated cost: the workload's wall-clock on the disabled path
//     and under full observation, normalized by the calibration kernel
//     and gated against BENCH_obs.json within the tolerance factor; the
//     observed/disabled overhead ratio is gated separately
//     (max_observed_overhead).
//
// The ≤2% disabled-vs-uninstrumented delta cannot be re-measured by a
// single binary (the uninstrumented code no longer exists here); it was
// measured when the layer landed and is recorded in BENCH_obs.json's
// measured block. What -check re-verifies on every host is the stronger
// local pin: zero allocations and no unit regression on the disabled
// path.

// obsBenchFile mirrors the committed BENCH_obs.json layout (only the
// fields -check consumes).
type obsBenchFile struct {
	Check struct {
		ToleranceFactor     float64            `json:"tolerance_factor"`
		MaxObservedOverhead float64            `json:"max_observed_overhead"`
		ReferenceUnits      map[string]float64 `json:"reference_units"`
	} `json:"check"`
}

// allocsPerOp measures steady-state allocations per op (single
// goroutine, GC quiesced first; the caller warms op before this).
func allocsPerOp(op func(), runs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// junkIngestOp builds the quiet-junk steady-state ingest→poll op from
// the core alloc pin: loud enough to frame, too weak to ever correlate,
// so the framing/queueing/polling layer — instrumented sites included —
// is an absolute zero.
func junkIngestOp(sink obs.Sink) func() {
	z := core.NewReceiver(core.DefaultConfig(), nil)
	z.Obs = sink
	z.SetStream(core.StreamConfig{})
	rng := rand.New(rand.NewSource(98))
	junk := make([]complex128, 3000)
	for i := range junk {
		junk[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.02
	}
	gap := make([]complex128, phy.DefaultIdleGap+9)
	return func() {
		z.Ingest(junk)
		z.Ingest(gap)
		for {
			if _, _, ok := z.PollOne(); !ok {
				break
			}
		}
	}
}

// reconcileObs diffs the registry's exported values against the final
// report, field by field. Any mismatch is a failed gate: the live
// /metrics surface and the report must tell the same story.
func reconcileObs(reg *obs.Registry, rep *serve.Report) []string {
	snap := reg.Snapshot(0)
	var bad []string
	counter := func(key string, want int64) {
		if got, ok := snap.Counters[key]; !ok || got != want {
			bad = append(bad, fmt.Sprintf("%s=%d want %d", key, got, want))
		}
	}
	counter("zigzag_serve_samples_total", rep.Samples)
	counter("zigzag_serve_receptions_total", rep.Receptions)
	counter("zigzag_serve_polled_total", rep.Polled)
	counter("zigzag_serve_dropped_total", rep.Dropped)
	counter("zigzag_serve_forced_cuts_total", rep.ForcedCuts)
	counter("zigzag_serve_frames_total", rep.Frames)
	counter("zigzag_serve_failed_total", rep.Failed)
	counter(`zigzag_serve_frames_via_total{via="standard"}`, rep.Standard)
	counter(`zigzag_serve_frames_via_total{via="zigzag"}`, rep.Zigzag)
	counter(`zigzag_serve_frames_via_total{via="capture"}`, rep.Capture)
	counter("zigzag_serve_degraded_spans_total", rep.DegradedSpans)
	lat := reg.Hist("zigzag_serve_latency_ns", "")
	if int64(lat.N()) != int64(rep.Latency.N()) {
		bad = append(bad, fmt.Sprintf("latency count %d want %d", lat.N(), rep.Latency.N()))
	} else if rep.Latency.N() > 0 {
		for _, q := range []float64{0.5, 0.99} {
			if got, want := lat.Quantile(q), rep.Latency.Quantile(q); got != want {
				bad = append(bad, fmt.Sprintf("latency p%g %g want %g", q*100, got, want))
			}
		}
	}
	return bad
}

// runObsCheck runs the observability gates. It returns the measured
// units (for -bench-out) and whether any gate failed.
func runObsCheck(cal float64) (map[string]float64, bool) {
	wasDisabled := obs.Disabled()
	defer obs.SetDisabled(wasDisabled)
	obs.SetDisabled(false)

	var ref obsBenchFile
	ref.Check.ToleranceFactor = 2.5
	ref.Check.MaxObservedOverhead = 1.25
	if data, err := os.ReadFile("BENCH_obs.json"); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: BENCH_obs.json unreadable: %v\n", err)
			return nil, true
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench-check: BENCH_obs.json not found; reporting obs measurements without unit gating")
	}
	if ref.Check.ToleranceFactor <= 0 {
		ref.Check.ToleranceFactor = 2.5
	}
	if ref.Check.MaxObservedOverhead <= 0 {
		ref.Check.MaxObservedOverhead = 1.25
	}
	failed := false

	// Gates 1+2: digest identity across observation states, hatch-off
	// registers nothing, counters reconcile with the report.
	base := runServeOnce(512, serve.Config{})
	reg := obs.NewRegistry()
	ring := obs.NewRing(obs.DefaultRingCapacity)
	observed := runServeOnce(512, serve.Config{Metrics: reg, Events: ring})
	obs.SetDisabled(true)
	hatchReg := obs.NewRegistry()
	hatched := runServeOnce(512, serve.Config{Metrics: hatchReg, Events: obs.NewRing(64)})
	obs.SetDisabled(false)

	if base.FrameDigest != observed.FrameDigest || base.FrameDigest != hatched.FrameDigest {
		fmt.Fprintf(os.Stderr, "bench-check: obs: frame digests DIFFER (base %#x, observed %#x, no-obs hatch %#x) — observation perturbed the decode\n",
			base.FrameDigest, observed.FrameDigest, hatched.FrameDigest)
		failed = true
	}
	hatchSnap := hatchReg.Snapshot(0)
	if n := len(hatchSnap.Keys()); n != 0 {
		fmt.Fprintf(os.Stderr, "bench-check: obs: no-obs hatch still registered %d metrics\n", n)
		failed = true
	}
	if ring.Published() == 0 {
		fmt.Fprintln(os.Stderr, "bench-check: obs: observed run published no events")
		failed = true
	}
	if bad := reconcileObs(reg, observed); len(bad) != 0 {
		fmt.Fprintf(os.Stderr, "bench-check: obs: metrics do not reconcile with the report: %v\n", bad)
		failed = true
	}
	if !failed {
		regSnap := reg.Snapshot(0)
		fmt.Printf("bench-check obs       unobserved ≡ observed ≡ no-obs hatch (digest %#x); %d metrics reconcile; %d events (%d dropped)\n",
			base.FrameDigest, len(regSnap.Keys()), ring.Published(), ring.Dropped())
	}

	// Gate 3: allocation pin on the disabled path.
	units := map[string]float64{}
	disabledOp := junkIngestOp(nil)
	disabledOp()
	disabledAllocs := allocsPerOp(disabledOp, 30)
	units["disabled_allocs_per_op"] = disabledAllocs
	verdict := "ok"
	if disabledAllocs != 0 {
		verdict = "ALLOC REGRESSION (want 0)"
		failed = true
	}
	ringOp := junkIngestOp(obs.NewRing(256))
	ringOp()
	ringAllocs := allocsPerOp(ringOp, 30)
	units["observed_allocs_per_op"] = ringAllocs
	fmt.Printf("bench-check obs-allocs   disabled %.0f/op  ring-observed %.0f/op  %s\n",
		disabledAllocs, ringAllocs, verdict)

	// Gate 4: calibrated cost, disabled vs observed.
	for _, leg := range []struct {
		name string
		cfg  func() serve.Config
	}{
		{"disabled", func() serve.Config { return serve.Config{} }},
		{"observed", func() serve.Config {
			return serve.Config{Metrics: obs.NewRegistry(), Events: obs.NewRing(obs.DefaultRingCapacity)}
		}},
	} {
		dur, _ := timeSweep(func() any { return runServeOnce(512, leg.cfg()) })
		u := dur.Seconds() / cal
		units[leg.name] = u
		verdict := "ok"
		if refUnits, hasRef := ref.Check.ReferenceUnits[leg.name]; hasRef && u > refUnits*ref.Check.ToleranceFactor {
			verdict = fmt.Sprintf("PERF REGRESSION (%.1f units > %.1f × %.1f)", u, refUnits, ref.Check.ToleranceFactor)
			failed = true
		}
		fmt.Printf("bench-check obs-%-9s %7.3fs  %6.1f units  %s\n", leg.name, dur.Seconds(), u, verdict)
	}
	if over := units["observed"] / units["disabled"]; over > ref.Check.MaxObservedOverhead {
		fmt.Fprintf(os.Stderr, "bench-check: obs: observed/disabled overhead %.3fx exceeds %.2fx\n",
			over, ref.Check.MaxObservedOverhead)
		failed = true
	} else {
		fmt.Printf("bench-check obs-overhead %.3fx observed/disabled (max %.2fx)\n", over, ref.Check.MaxObservedOverhead)
	}
	return units, failed
}
