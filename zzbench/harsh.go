package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"zigzag/internal/experiments"
)

// The harsh-suite workload is experiments.HarshCounts at full scale:
// 25 sweep points of 60 collision pairs, 700 B payloads, k=2, on two
// workers. Sixty pairs make two 32-trial runner blocks per point, so
// neither worker idles.
const (
	harshK       = 2
	harshWorkers = 2
)

func harshScale(workers int) experiments.Scale {
	sc := experiments.Full
	sc.Workers = workers
	return sc
}

// harshSuite runs the suite once and returns its tallies and wall-clock.
func harshSuite(sc experiments.Scale, seed int64) ([]experiments.CountSeries, time.Duration) {
	start := time.Now()
	cs := experiments.HarshCounts(sc, seed, harshK, experiments.Shard{})
	return cs, time.Since(start)
}

// harshTally sums the suite's tallies: collision sets decoded, and bits
// in error out of bits sent.
func harshTally(cs []experiments.CountSeries, pairs int) (trials, errBits, totBits int64) {
	for _, s := range cs {
		for _, p := range s.Points {
			trials += int64(pairs)
			errBits += p.Err
			totBits += p.Tot
		}
	}
	return trials, errBits, totBits
}

func runHarsh(o options) (*result, error) {
	sc := harshScale(harshWorkers)
	// Set-up warms the process up with the suite at one pair per sweep
	// point, setupRepeats times. Only the first run builds the pooled
	// sessions, impairment chains and FFT plans, and that build is a
	// small part of it (cold minus warm read about 0.03 s of 0.2-0.3 s),
	// so setup_s, the median, times a one-pair sweep: 25 collision sets
	// decoded one at a time.
	warm := sc
	warm.Pairs = 1
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		_, d := harshSuite(warm, o.seed)
		setups = append(setups, d.Seconds())
	}
	if o.trace {
		return traceHarsh(o, sc)
	}

	// Whole suite runs until the budget; the rates and p50 use the
	// median run. Fewer than ten runs fit, so p90 is the slowest run.
	var first []experiments.CountSeries
	var walls []float64
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for {
		cs, d := harshSuite(sc, o.seed)
		if first == nil {
			first = cs
		} else if !reflect.DeepEqual(cs, first) {
			return nil, fmt.Errorf("suite run %d gave other tallies than the first", len(walls))
		}
		walls = append(walls, d.Seconds())
		// Stop before a suite run that would end past the budget.
		if time.Since(start)+d > budget {
			break
		}
	}
	trials, errBits, totBits := harshTally(first, sc.Pairs)
	if totBits == 0 {
		return nil, fmt.Errorf("the suite decoded no bits")
	}
	ber := float64(errBits) / float64(totBits)
	secs := median(walls)
	// A bit error ratio of 1/2 carries no information, so the share of
	// bits lost is twice the bit error ratio (serve-live's converse).
	ms, err := report(endToEnd, map[string]float64{
		"frames_per_s":    float64(harshK*trials) / secs,
		"latency_p50_ms":  secs * 1e3,
		"latency_p90_ms":  slices.Max(walls) * 1e3,
		"loss_ratio":      2 * ber,
		"trials_per_s":    float64(trials) / secs,
		"bit_error_ratio": ber,
		"setup_s":         median(setups),
	}, false)
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: trials * int64(len(walls)), Metrics: ms}, nil
}

// traceHarsh is the harsh suite's traced run: the two-worker suite
// untraced, again under the CPU profiler, then the single-worker
// baseline. All three must give the same tallies.
func traceHarsh(o options, sc experiments.Scale) (*result, error) {
	base, wall2 := harshSuite(sc, o.seed)

	tr := newTracer()
	var traced []experiments.CountSeries
	prof, err := profileCPU(o.profileDir, fmt.Sprintf("harsh-suite-%d", o.seed), func() {
		root := tr.begin(spanDrive, -1)
		sp := tr.begin("experiments.harsh", root)
		traced = experiments.HarshCounts(sc, o.seed, harshK, experiments.Shard{})
		tr.end(sp)
		tr.end(root)
	})
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(traced, base) {
		return nil, fmt.Errorf("the profiled suite gave other tallies than the untraced one")
	}
	single, wall1 := harshSuite(harshScale(1), o.seed)
	if !reflect.DeepEqual(single, base) {
		return nil, fmt.Errorf("the single-worker suite gave other tallies than the %d-worker one", harshWorkers)
	}

	total, self := spanTotals(tr.spans)
	wall := float64(total[spanDrive])
	trials, _, _ := harshTally(base, sc.Pairs)
	return traceResult(trials, map[string]float64{
		"runner.scaling_efficiency": wall1.Seconds() / (harshWorkers * wall2.Seconds()),
		"trace.overhead_ratio":      wall / float64(wall2),
		"trace.unattributed_share":  float64(self[spanDrive]) / wall,
		"heap.retained_mb":          retainedHeapMB(),
	}, prof)
}
