package main

import (
	"encoding/json"
	"fmt"
	"os"

	"zigzag/internal/experiments"
	"zigzag/internal/impair"
)

// The k-way leg of -check guards the generalized SIC framework's cost:
// the end-to-end joint-decode cost of k = 2, 3, 4 collisions (KWayBER,
// static channel) is normalized by the same calibration kernel as the
// session sweeps and compared against the committed BENCH_kway.json
// within the tolerance factor. Each extra packet multiplies
// re-encode/subtract work, so the per-k units also document how the
// cancellation chains scale. (The k=2 decode is pinned to its golden by
// internal/core's TestK2PairwiseSICGolden.)

// kwayBenchFile mirrors the committed BENCH_kway.json layout (only the
// fields -check consumes).
type kwayBenchFile struct {
	Check struct {
		ToleranceFactor float64            `json:"tolerance_factor"`
		ReferenceUnits  map[string]float64 `json:"reference_units"`
	} `json:"check"`
}

// kwayCostScale sizes the per-k cost measurement: enough pairs per k
// that the calibrated quotient resolves well above the timer floor.
var kwayCostScale = func() experiments.Scale {
	sc := checkScale
	sc.Pairs = 30
	return sc
}()

// runKWayCheck runs the per-k cost gate. It returns the measured units
// per k (for -bench-out) and whether any gate failed.
func runKWayCheck(cal float64) (map[string]float64, bool) {
	var ref kwayBenchFile
	ref.Check.ToleranceFactor = 2.5
	if data, err := os.ReadFile("BENCH_kway.json"); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: BENCH_kway.json unreadable: %v\n", err)
			return nil, true
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench-check: BENCH_kway.json not found; reporting k-way measurements without unit gating")
	}
	if ref.Check.ToleranceFactor <= 0 {
		ref.Check.ToleranceFactor = 2.5
	}

	failed := false
	units := map[string]float64{}
	for _, k := range []int{2, 3, 4} {
		name := fmt.Sprintf("k%d", k)
		dur, _ := timeSweep(func() any {
			return experiments.KWayBER(kwayCostScale, 3, k, impair.Profile{})
		})
		u := dur.Seconds() / cal
		units[name] = u
		verdict := "ok"
		if refUnits, hasRef := ref.Check.ReferenceUnits[name]; hasRef && u > refUnits*ref.Check.ToleranceFactor {
			verdict = fmt.Sprintf("PERF REGRESSION (%.1f units > %.1f × %.1f)", u, refUnits, ref.Check.ToleranceFactor)
			failed = true
		}
		fmt.Printf("bench-check kway-%-4s decode %7.3fs  %6.1f units  %s\n", name, dur.Seconds(), u, verdict)
	}
	return units, failed
}
