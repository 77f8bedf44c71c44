package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"zigzag/internal/experiments"
)

// The -check mode is the benchmark-regression gate. It runs a trimmed
// pass of representative figure sweeps and checks their calibrated
// units: each sweep's wall-clock is divided by the time of a fixed
// CPU-bound calibration kernel measured on the same machine, and the
// quotient is compared against the committed reference within a
// generous tolerance factor. Normalizing by the kernel makes the gate
// portable across hosts of different speeds while still catching gross
// per-trial cost regressions. (Pooled-versus-fresh session identity is
// internal/session's TestSessionReuseBitIdentical.)
//
// The committed reference values live in BENCH_session.json (which also
// records the measured speedups of this engine against the pre-session
// per-trial builds — the numbers the gate exists to protect).

// checkScale is the trimmed scale -check runs (mirrors the determinism
// suites' micro scale: a few seconds per sweep per mode).
var checkScale = experiments.Scale{
	Pairs:          3,
	Packets:        3,
	Payload:        120,
	TestbedPayload: 200,
	TestbedPairs:   4,
	Trials:         4000,
	Fig47Nodes:     []int{2, 3, 4},
	MinStatPairs:   2,
	Workers:        1, // serial: isolates per-trial cost from scheduling
}

// checkSweeps are the benchmarked figure sweeps.
var checkSweeps = []struct {
	name string
	run  func() any
}{
	{"fig4-7a", func() any { return experiments.Fig47FixedOnly(checkScale, 3) }},
	{"fig5-3", func() any { return experiments.Fig53BERvsSNR(checkScale, 3) }},
	{"table5-1", func() any { return experiments.Table51MicroEval(checkScale, 3) }},
	{"fig5-5", func() any { return experiments.RunTestbed(checkScale, 3) }},
	// The harsh-channel suite exercises the impairment engine's hot
	// path (fading/drift/interference beneath every mix).
	{"harsh", func() any { return experiments.HarshChannelSuite(checkScale, 3) }},
}

// benchFile mirrors the committed BENCH_session.json layout (only the
// fields -check consumes).
type benchFile struct {
	Check struct {
		ToleranceFactor float64            `json:"tolerance_factor"`
		ReferenceUnits  map[string]float64 `json:"reference_units"`
	} `json:"check"`
}

// measuredSweep is one sweep's -check measurement.
type measuredSweep struct {
	Seconds float64 `json:"seconds"`
	Units   float64 `json:"units"` // seconds / calibration_seconds
}

// buildGoamd64 returns the GOAMD64 microarchitecture level this binary
// was compiled for ("" when the build info does not record one, e.g.
// non-amd64 targets). Recorded in every written bench file so kernel
// numbers are never compared across instruction-set baselines
// unknowingly.
func buildGoamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return ""
}

// hostRecord is the environment block stamped into every bench file
// this binary writes.
func hostRecord() map[string]any {
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"goamd64":    buildGoamd64(),
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

// calibrate times the fixed splitmix kernel (100M mixes, min of 3
// runs): a pure-CPU, allocation-free yardstick for the host's
// single-thread speed.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for r := 0; r < 3; r++ {
		start := time.Now()
		var acc, z uint64
		for i := 0; i < 100_000_000; i++ {
			z += 0x9E3779B97F4A7C15
			x := z
			x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			x = (x ^ (x >> 27)) * 0x94D049BB133111EB
			acc += x ^ (x >> 31)
		}
		if acc == 42 { // keep the loop from being optimized away
			fmt.Fprint(os.Stderr, "")
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Seconds()
}

// timeSweep runs fn twice (warm-up + timed) and returns the timed
// duration and result.
func timeSweep(fn func() any) (time.Duration, any) {
	fn() // warm-up: grow pools/arenas and page in code
	start := time.Now()
	out := fn()
	return time.Since(start), out
}

func runBenchCheck(outPath string, kwayOnly, campaignOnly, serveOnly, obsOnly bool) int {
	var ref benchFile
	ref.Check.ToleranceFactor = 2.5
	if data, err := os.ReadFile("BENCH_session.json"); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: BENCH_session.json unreadable: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench-check: BENCH_session.json not found; reporting measurements without unit gating")
	}
	if ref.Check.ToleranceFactor <= 0 {
		ref.Check.ToleranceFactor = 2.5
	}

	cal := calibrate()
	fmt.Printf("bench-check calibration kernel: %.3fs\n", cal)

	results := map[string]measuredSweep{}
	failed := false
	sweeps := checkSweeps
	if kwayOnly || campaignOnly || serveOnly || obsOnly {
		sweeps = nil
	}
	for _, sw := range sweeps {
		dur, _ := timeSweep(sw.run)
		m := measuredSweep{Seconds: dur.Seconds(), Units: dur.Seconds() / cal}
		results[sw.name] = m
		verdict := "ok"
		if refUnits, hasRef := ref.Check.ReferenceUnits[sw.name]; hasRef && m.Units > refUnits*ref.Check.ToleranceFactor {
			verdict = fmt.Sprintf("PERF REGRESSION (%.1f units > %.1f × %.1f)", m.Units, refUnits, ref.Check.ToleranceFactor)
			failed = true
		}
		fmt.Printf("bench-check %-9s %7.3fs  %6.1f units  %s\n", sw.name, m.Seconds, m.Units, verdict)
	}

	var kernUnits map[string]float64
	if !kwayOnly && !campaignOnly && !serveOnly && !obsOnly {
		var kernFailed bool
		kernUnits, kernFailed = runKernCheck(cal)
		if kernFailed {
			failed = true
		}
	}
	var kwayUnits, campaignUnits, serveUnits, obsUnits map[string]float64
	if !campaignOnly && !serveOnly && !obsOnly {
		var kwayFailed bool
		kwayUnits, kwayFailed = runKWayCheck(cal)
		if kwayFailed {
			failed = true
		}
	}
	if !kwayOnly && !serveOnly && !obsOnly {
		var campaignFailed bool
		campaignUnits, campaignFailed = runCampaignCheck(cal)
		if campaignFailed {
			failed = true
		}
	}
	if !kwayOnly && !campaignOnly && !obsOnly {
		var serveFailed bool
		serveUnits, serveFailed = runServeCheck(cal)
		if serveFailed {
			failed = true
		}
	}
	if !kwayOnly && !campaignOnly && !serveOnly {
		var obsFailed bool
		obsUnits, obsFailed = runObsCheck(cal)
		if obsFailed {
			failed = true
		}
	}

	if outPath != "" {
		data, err := json.MarshalIndent(map[string]any{
			"host":                hostRecord(),
			"calibration_seconds": cal,
			"sweeps":              results,
			"kern_units":          kernUnits,
			"kway_units":          kwayUnits,
			"campaign_units":      campaignUnits,
			"serve_units":         serveUnits,
			"obs_units":           obsUnits,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: writing %s: %v\n", outPath, err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}
