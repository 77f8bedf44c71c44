package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"zigzag/internal/core"
	"zigzag/internal/serve"
)

// The serve leg of -check guards the streaming ingest redesign:
//
//  1. Identity: the same synthetic stream runs through the streaming
//     Ingest/Poll front end at two unrelated chunk sizes, and both
//     frame digests must match. (internal/serve's
//     TestEngineStreamingOneshotIdentity pins the engine against a
//     one-shot framer-plus-Receive loop.)
//  2. Shedding: a 2× overload (one decode budgeted per read that
//     carries two receptions) must shed receptions — counted, with
//     polled + dropped == framed — while still delivering frames. This
//     is the no-stall contract of the bounded queue.
//  3. Calibrated cost + allocation rate: the end-to-end cost of serving
//     a fixed synthetic stream (generation + framing + decode) is
//     normalized by the calibration kernel and compared
//     against BENCH_serve.json within the tolerance factor; the decode
//     allocation rate per delivered frame is gated the same way (the
//     bounded-memory canary — the streaming layer itself is pinned to
//     zero steady-state allocations by the core tests, so growth here
//     means a regression in the decode path the stream rides on).
//
// The committed reference values live in BENCH_serve.json, which also
// records the measured packets/sec and latency percentiles of the host
// that produced them.

// serveBenchFile mirrors the committed BENCH_serve.json layout (only
// the fields -check consumes).
type serveBenchFile struct {
	Check struct {
		ToleranceFactor float64            `json:"tolerance_factor"`
		ReferenceUnits  map[string]float64 `json:"reference_units"`
	} `json:"check"`
}

// serveCheckStream is the fixed workload the identity and cost gates
// serve: hidden pairs plus periodic clean packets, enough episodes
// that the calibrated quotient resolves above the timer floor.
var serveCheckStream = serve.SynthConfig{Seed: 11, Episodes: 48, Payload: 200}

// runServeOnce serves the gate's workload once in chunks of chunk
// samples and returns the report.
func runServeOnce(chunk int, ecfg serve.Config) *serve.Report {
	g, err := serve.NewSynthetic(serveCheckStream)
	if err != nil {
		panic(err)
	}
	defer g.Close()
	ecfg.Clients = g.Clients()
	ecfg.Chunk = chunk
	e := serve.NewEngine(ecfg)
	defer e.Close()
	rep, err := e.Run(g)
	if err != nil {
		panic(err)
	}
	return rep
}

// runServeCheck runs the identity, shedding and cost gates. It returns
// the measured units (for -bench-out) and whether any gate failed.
func runServeCheck(cal float64) (map[string]float64, bool) {
	var ref serveBenchFile
	ref.Check.ToleranceFactor = 2.5
	if data, err := os.ReadFile("BENCH_serve.json"); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: BENCH_serve.json unreadable: %v\n", err)
			return nil, true
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench-check: BENCH_serve.json not found; reporting serve measurements without unit gating")
	}
	if ref.Check.ToleranceFactor <= 0 {
		ref.Check.ToleranceFactor = 2.5
	}
	failed := false

	// Gate 1: streaming ≡ any chunking.
	stream := runServeOnce(512, serve.Config{})
	streamOdd := runServeOnce(97, serve.Config{})
	if stream.Frames == 0 || stream.Zigzag == 0 {
		fmt.Fprintf(os.Stderr, "bench-check: serve: workload decoded %d frames (%d zigzag) — gate stream degenerate\n",
			stream.Frames, stream.Zigzag)
		failed = true
	}
	if stream.FrameDigest != streamOdd.FrameDigest {
		fmt.Fprintf(os.Stderr, "bench-check: serve: frame digests DIFFER (stream %#x, chunk97 %#x) — streaming ingest broke bit-identity\n",
			stream.FrameDigest, streamOdd.FrameDigest)
		failed = true
	} else {
		fmt.Printf("bench-check serve     streaming ≡ rechunked (digest %#x, %d frames)\n",
			stream.FrameDigest, stream.Frames)
	}

	// Gate 2: 2× overload sheds without stalling.
	shed := runServeOnce(1<<16, serve.Config{
		PollBudget: 1,
		Stream:     core.StreamConfig{MaxPending: 2},
	})
	switch {
	case shed.Dropped == 0:
		fmt.Fprintln(os.Stderr, "bench-check: serve: overload run shed nothing — the bounded queue is not bounding")
		failed = true
	case shed.Polled+shed.Dropped != shed.Receptions:
		fmt.Fprintf(os.Stderr, "bench-check: serve: shed accounting leak (polled %d + dropped %d != receptions %d)\n",
			shed.Polled, shed.Dropped, shed.Receptions)
		failed = true
	case shed.Frames == 0:
		fmt.Fprintln(os.Stderr, "bench-check: serve: overload run delivered nothing — shedding stalled the stream")
		failed = true
	default:
		fmt.Printf("bench-check serve     2x overload: shed %d/%d receptions, still delivered %d frames\n",
			shed.Dropped, shed.Receptions, shed.Frames)
	}

	// Gate 3: calibrated cost + allocation rate.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dur, out := timeSweep(func() any { return runServeOnce(512, serve.Config{}) })
	runtime.ReadMemStats(&m1)
	rep := out.(*serve.Report)
	u := dur.Seconds() / cal
	units := map[string]float64{"stream": u}
	verdict := "ok"
	if refUnits, hasRef := ref.Check.ReferenceUnits["stream"]; hasRef && u > refUnits*ref.Check.ToleranceFactor {
		verdict = fmt.Sprintf("PERF REGRESSION (%.1f units > %.1f × %.1f)", u, refUnits, ref.Check.ToleranceFactor)
		failed = true
	}
	fmt.Printf("bench-check serve-stream  %7.3fs  %6.1f units  %8.1f frames/s  p99 %6.3fms  %s\n",
		dur.Seconds(), u, rep.PacketsPerSec, rep.Latency.Quantile(0.99)/1e6, verdict)
	// Allocation rate (the timed run covers warm-up + timed pass; both
	// decode the same frame count).
	apf := float64(m1.Mallocs-m0.Mallocs) / float64(2*rep.Frames)
	units["allocs_per_frame"] = apf
	verdict = "ok"
	if refA, hasRef := ref.Check.ReferenceUnits["allocs_per_frame"]; hasRef && apf > refA*ref.Check.ToleranceFactor {
		verdict = fmt.Sprintf("ALLOC REGRESSION (%.0f/frame > %.0f × %.1f)", apf, refA, ref.Check.ToleranceFactor)
		failed = true
	}
	fmt.Printf("bench-check serve-allocs  %6.0f allocations per delivered frame  %s\n", apf, verdict)
	return units, failed
}
