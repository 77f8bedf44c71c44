package serve

import (
	"testing"

	"zigzag/internal/obs"
)

// skipIfNoObs skips observation tests under the ZIGZAG_NO_OBS=1 race
// leg: the engine (correctly) refuses to attach observers there, which
// is itself pinned by TestEngineNoObsHatchDetaches.
func skipIfNoObs(t *testing.T) {
	t.Helper()
	if obs.Disabled() {
		t.Skip("observability disabled (ZIGZAG_NO_OBS)")
	}
}

// reconcile asserts every exported serve counter matches the report.
func reconcile(t *testing.T, reg *obs.Registry, rep *Report) {
	t.Helper()
	snap := reg.Snapshot(0)
	for key, want := range map[string]int64{
		"zigzag_serve_samples_total":                    rep.Samples,
		"zigzag_serve_receptions_total":                 rep.Receptions,
		"zigzag_serve_polled_total":                     rep.Polled,
		"zigzag_serve_dropped_total":                    rep.Dropped,
		"zigzag_serve_forced_cuts_total":                rep.ForcedCuts,
		"zigzag_serve_frames_total":                     rep.Frames,
		"zigzag_serve_failed_total":                     rep.Failed,
		`zigzag_serve_frames_via_total{via="standard"}`: rep.Standard,
		`zigzag_serve_frames_via_total{via="zigzag"}`:   rep.Zigzag,
		`zigzag_serve_frames_via_total{via="capture"}`:  rep.Capture,
		"zigzag_serve_degraded_spans_total":             rep.DegradedSpans,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, report says %d", key, got, want)
		}
	}
	if got := snap.Gauges["zigzag_serve_stored_collisions"]; got != int64(rep.StoredLeft) {
		t.Errorf("stored gauge = %d, report says %d", got, rep.StoredLeft)
	}
	if got := snap.Gauges["zigzag_serve_pending"]; got != 0 {
		t.Errorf("pending gauge = %d after a drained stream", got)
	}
	lat := reg.Hist("zigzag_serve_latency_ns", "")
	if int64(lat.N()) != int64(rep.Latency.N()) {
		t.Errorf("latency hist count %d, report sketch %d", lat.N(), rep.Latency.N())
	} else if rep.Latency.N() > 0 {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if got, want := lat.Quantile(q), rep.Latency.Quantile(q); got != want {
				t.Errorf("latency q%g: hist %g, report %g", q, got, want)
			}
		}
	}
}

// TestEngineMetricsReconcileWithReport is the live-export acceptance
// gate at test scale: after a run with a fresh registry, every exported
// counter, the stored/pending gauges and the latency quantiles must
// equal the final report exactly.
func TestEngineMetricsReconcileWithReport(t *testing.T) {
	skipIfNoObs(t)
	reg := obs.NewRegistry()
	ring := obs.NewRing(obs.DefaultRingCapacity)
	rep := runEngine(t, SynthConfig{Seed: 7, Episodes: 8}, Config{Metrics: reg, Events: ring})
	if rep.Frames == 0 || rep.Zigzag == 0 {
		t.Fatalf("degenerate workload: %d frames (%d zigzag)", rep.Frames, rep.Zigzag)
	}
	reconcile(t, reg, rep)
	if ring.Published() == 0 {
		t.Error("no events published during the run")
	}
	if rep.Latency.N() == 0 {
		t.Error("no latency observations under the fake clock")
	}
}

// TestEngineMetricsDeltaAcrossEngines pins the delta-publishing
// contract: registry counters are shared and accumulating, so two
// engines feeding one registry must sum — a second run must not
// overwrite or double-count the first.
func TestEngineMetricsDeltaAcrossEngines(t *testing.T) {
	skipIfNoObs(t)
	reg := obs.NewRegistry()
	rep1 := runEngine(t, SynthConfig{Seed: 7, Episodes: 8}, Config{Metrics: reg})
	rep2 := runEngine(t, SynthConfig{Seed: 13, Episodes: 4}, Config{Metrics: reg})
	snap := reg.Snapshot(0)
	for key, want := range map[string]int64{
		"zigzag_serve_samples_total":    rep1.Samples + rep2.Samples,
		"zigzag_serve_receptions_total": rep1.Receptions + rep2.Receptions,
		"zigzag_serve_frames_total":     rep1.Frames + rep2.Frames,
		"zigzag_serve_polled_total":     rep1.Polled + rep2.Polled,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d (sum of both runs)", key, got, want)
		}
	}
}

// TestEngineDegradeMetricsConsistency is the degrade-hysteresis
// counter-consistency test: across high→low watermark transitions —
// including shedding while degraded — the exported counters, the final
// gauge states and the typed degrade events must all agree with the
// report.
func TestEngineDegradeMetricsConsistency(t *testing.T) {
	skipIfNoObs(t)

	reg := obs.NewRegistry()
	ring := obs.NewRing(1 << 14)
	rep := runEngine(t, SynthConfig{Seed: 21, Episodes: 16}, Config{
		Chunk:      1 << 16, // whole episodes per read: backlog builds faster than the budget drains
		PollBudget: 1,
		Policy:     PolicyDegrade,
		Stream:     coreStream(4),
		HighWater:  2,
		LowWater:   1,
		Metrics:    reg,
		Events:     ring,
	})
	if rep.DegradedSpans == 0 {
		t.Fatal("workload never engaged degraded mode; the test is vacuous")
	}
	if rep.Dropped == 0 {
		t.Fatal("workload never shed while degraded; the test is vacuous")
	}
	reconcile(t, reg, rep)

	snap := reg.Snapshot(0)
	if got := snap.Counters["zigzag_serve_degraded_spans_total"]; got != rep.DegradedSpans {
		t.Errorf("degraded spans counter = %d, report %d", got, rep.DegradedSpans)
	}
	if got := snap.Gauges["zigzag_serve_degraded"]; got != 0 {
		t.Errorf("degraded gauge = %d after stream end, want 0 (restored)", got)
	}

	// The typed degrade transitions must tell the same story: spans
	// engage events, alternating engage/restore, starting engaged and
	// ending restored.
	var engages, restores int64
	last := int64(-1)
	for _, ev := range ring.Drain(nil) {
		if ev.Kind != obs.KindDegrade {
			continue
		}
		if ev.A == last {
			t.Fatalf("consecutive degrade events with the same direction %d", ev.A)
		}
		last = ev.A
		if ev.A == 1 {
			engages++
		} else {
			restores++
		}
	}
	if engages != rep.DegradedSpans {
		t.Errorf("degrade engage events = %d, report spans %d", engages, rep.DegradedSpans)
	}
	if restores != engages {
		t.Errorf("engage/restore imbalance: %d vs %d (stream must end restored)", engages, restores)
	}
	if last != 0 {
		t.Errorf("final degrade event direction = %d, want 0 (restored)", last)
	}
}

// TestEngineNoObsHatchDetaches pins the escape hatch: with obs disabled
// the engine must not register metrics or attach sinks even when the
// config asks for them, and the decode must be bit-identical.
func TestEngineNoObsHatchDetaches(t *testing.T) {
	wasObs := obs.Disabled()
	defer obs.SetDisabled(wasObs)

	sc := SynthConfig{Seed: 9, Episodes: 4}
	obs.SetDisabled(false)
	base := runEngine(t, sc, Config{})

	obs.SetDisabled(true)
	reg := obs.NewRegistry()
	ring := obs.NewRing(64)
	rep := runEngine(t, sc, Config{Metrics: reg, Events: ring, ProfileLabels: true})

	if rep.FrameDigest != base.FrameDigest {
		t.Fatalf("no-obs digest %#x != baseline %#x", rep.FrameDigest, base.FrameDigest)
	}
	snap := reg.Snapshot(0)
	if n := len(snap.Keys()); n != 0 {
		t.Errorf("disabled engine registered %d metrics", n)
	}
	if ring.Published() != 0 {
		t.Errorf("disabled engine published %d events", ring.Published())
	}
}

// TestEngineObservedDigestIdentity pins the first-order contract: full
// observation must not perturb the decode.
func TestEngineObservedDigestIdentity(t *testing.T) {
	skipIfNoObs(t)
	sc := SynthConfig{Seed: 7, Episodes: 8}
	base := runEngine(t, sc, Config{})
	observed := runEngine(t, sc, Config{
		Metrics:       obs.NewRegistry(),
		Events:        obs.NewRing(256),
		ProfileLabels: true,
	})
	if observed.FrameDigest != base.FrameDigest {
		t.Fatalf("observed digest %#x != baseline %#x — observation perturbed the decode",
			observed.FrameDigest, base.FrameDigest)
	}
}
