// Command zigzag-serve runs the streaming online-receiver engine: a
// long-lived AP-side process that ingests a continuous I/Q stream in
// arbitrary-size chunks through the core receiver's bounded-memory
// Ingest/Poll surface and reports per-stream throughput, shedding and
// decode-latency percentiles.
//
// Usage:
//
//	zigzag-serve [-episodes 16] [-k 2] [-seed 1] [-payload 260]
//	             [-snr 13] [-noise 0.05] [-gap 256] [-clean-every 4]
//	             [-doppler 0] [-rician-k 0] [-interf-duty 0] [-drift 0]
//	             [-chunk 512] [-policy drop-oldest|degrade]
//	             [-max-pending 8] [-poll-budget 0]
//	             [-record FILE | -replay FILE] [-capture-format complex128|complex64]
//	             [-listen ADDR] [-json] [-no-obs]
//
// By default the engine serves a synthetic hidden-terminal workload:
// -episodes collision episodes of -k mutually hidden senders, each
// episode colliding the same k packets k times at fresh offsets (the
// §5.1d retransmission workflow), every -clean-every-th episode a
// single interference-free packet. The stream is a pure function of
// the synth flags, so any run is reproducible.
//
// -record tees the synthetic stream into a ZIQ capture file while
// serving it; -replay serves a previously recorded capture instead.
// Replay reconstructs the AP's client table from the same synth flags
// the capture was recorded with, so pass the same -seed/-k/-snr/-noise.
//
// -poll-budget caps decoded receptions per ingested chunk (0 = drain
// fully) — a deterministic stand-in for a slow decoder; under overload
// the -policy decides whether the bounded queue just sheds its oldest
// receptions or additionally degrades the receiver (skip
// stored-collision matching) until the backlog drains.
//
// -listen ADDR starts the live observability endpoint while the engine
// runs: Prometheus text metrics at /metrics, JSON snapshots (with
// window rates and recent typed decode events) at /debug/obs, and the
// standard net/http/pprof handlers at /debug/pprof/ with ingest/decode
// phases labeled. The exported counters reconcile exactly with the
// final report. -no-obs (ZIGZAG_NO_OBS=1) disables the whole layer.
//
// The one runtime switch, -no-obs, comes from the internal/hatch
// registry; ZIGZAG_NO_OBS sets it too, and an absent flag never
// overrides the environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"zigzag/internal/core"
	"zigzag/internal/hatch"
	"zigzag/internal/impair"
	"zigzag/internal/obs"
	"zigzag/internal/serve"
)

// serveStream builds the ingest front-end config from the flags.
func serveStream(maxPending int) core.StreamConfig {
	return core.StreamConfig{MaxPending: maxPending}
}

// teeSource records every sample read from src into a capture file.
type teeSource struct {
	src serve.Source
	w   *serve.CaptureWriter
}

func (t *teeSource) Read(p []complex128) (int, error) {
	n, err := t.src.Read(p)
	if n > 0 {
		if werr := t.w.Write(p[:n]); werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}

func main() {
	episodes := flag.Int("episodes", 16, "synthetic stream length in collision episodes")
	k := flag.Int("k", 2, "mutually hidden senders (collision order, 2-4)")
	seed := flag.Int64("seed", 1, "RNG seed (the stream is a pure function of the synth flags)")
	payload := flag.Int("payload", 260, "payload bytes per packet")
	snr := flag.Float64("snr", 13, "every sender's SNR at the AP (dB)")
	noise := flag.Float64("noise", 0.05, "receiver noise power")
	gap := flag.Int("gap", 256, "idle-air samples between receptions")
	cleanEvery := flag.Int("clean-every", 4, "every n-th episode is a single clean packet (<0 disables)")
	doppler := flag.Float64("doppler", 0, "Rayleigh/Rician fading normalized Doppler f_d·T (0 = no fading)")
	ricianK := flag.Float64("rician-k", 0, "Rician K-factor for the fading model (0 = Rayleigh)")
	interfDuty := flag.Float64("interf-duty", 0, "bursty narrowband interferer duty cycle in (0,1) (0 = off)")
	drift := flag.Float64("drift", 0, "carrier-frequency drift in rad/sample² (0 = off)")
	chunk := flag.Int("chunk", 512, "ingest read size in samples (results are chunk-invariant)")
	policyName := flag.String("policy", "drop-oldest", "overload policy: drop-oldest|degrade")
	maxPending := flag.Int("max-pending", 0, "pending-reception queue bound (0 = default 8)")
	pollBudget := flag.Int("poll-budget", 0, "receptions decoded per ingested chunk (0 = drain fully)")
	record := flag.String("record", "", "tee the synthetic stream into this ZIQ capture file while serving")
	replay := flag.String("replay", "", "serve this ZIQ capture instead of generating traffic")
	captureFormat := flag.String("capture-format", "complex128", "with -record: complex128 (bit-exact) | complex64 (half size)")
	listen := flag.String("listen", "", "serve /metrics, /debug/obs and /debug/pprof on this address while running (e.g. :9090)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	applyHatches := hatch.Bind(flag.CommandLine)
	flag.Parse()
	applyHatches()

	policy, ok := serve.ParsePolicy(*policyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		os.Exit(2)
	}
	format := serve.FormatComplex128
	if *captureFormat == "complex64" {
		format = serve.FormatComplex64
	} else if *captureFormat != "complex128" {
		fmt.Fprintf(os.Stderr, "unknown capture format %q\n", *captureFormat)
		os.Exit(2)
	}
	if *record != "" && *replay != "" {
		fmt.Fprintln(os.Stderr, "-record and -replay are mutually exclusive")
		os.Exit(2)
	}

	sc := serve.SynthConfig{
		Seed:       *seed,
		K:          *k,
		Episodes:   *episodes,
		Payload:    *payload,
		SNRdB:      *snr,
		NoisePower: *noise,
		Gap:        *gap,
		CleanEvery: *cleanEvery,
		Impair: impair.Profile{
			Doppler:    *doppler,
			RicianK:    *ricianK,
			InterfDuty: *interfDuty,
			DriftRate:  *drift,
		},
	}
	gen, err := serve.NewSynthetic(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer gen.Close()

	// The generator doubles as the client-table oracle in replay mode:
	// the capture carries raw samples only, and the AP's association
	// state is reproduced from the same synth flags.
	var src serve.Source = gen
	if *replay != "" {
		cr, err := serve.OpenCapture(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cr.Close()
		src = cr
	} else if *record != "" {
		cw, err := serve.CreateCapture(*record, format)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = &teeSource{src: gen, w: cw}
		defer func() {
			if err := cw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "closing capture: %v\n", err)
			}
		}()
	}

	cfg := serve.Config{
		Clients:    gen.Clients(),
		Stream:     serveStream(*maxPending),
		Chunk:      *chunk,
		Policy:     policy,
		PollBudget: *pollBudget,
	}
	if *listen != "" && !obs.Disabled() {
		ring := obs.NewRing(obs.DefaultRingCapacity)
		exporter, srv, err := obs.ListenAndServe(*listen, obs.Default, ring)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs listener: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		defer exporter.Close()
		cfg.Metrics = obs.Default
		cfg.Events = ring
		cfg.ProfileLabels = true
	}
	e := serve.NewEngine(cfg)
	defer e.Close()
	rep, err := e.Run(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stream error: %v\n", err)
	}

	if *jsonOut {
		data, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr != nil {
			fmt.Fprintln(os.Stderr, jerr)
			os.Exit(1)
		}
		fmt.Println(string(data))
	} else {
		printReport(rep, policy)
	}
	if err != nil {
		os.Exit(1)
	}
}

func printReport(rep *serve.Report, policy serve.Policy) {
	fmt.Printf("zigzag-serve: ingest=streaming policy=%s\n", policy)
	fmt.Printf("stream:  %d samples  %d receptions  %d polled  %d dropped  %d forced cuts\n",
		rep.Samples, rep.Receptions, rep.Polled, rep.Dropped, rep.ForcedCuts)
	fmt.Printf("frames:  %d delivered (standard %d  zigzag %d  capture %d)  %d failed  %d collisions still stored\n",
		rep.Frames, rep.Standard, rep.Zigzag, rep.Capture, rep.Failed, rep.StoredLeft)
	if rep.DegradedSpans > 0 {
		fmt.Printf("degrade: engaged %d time(s)\n", rep.DegradedSpans)
	}
	fmt.Printf("rate:    %.1f frames/s over %v\n", rep.PacketsPerSec, rep.Elapsed.Round(1000))
	if rep.Latency != nil && rep.Latency.N() > 0 {
		fmt.Printf("latency: p50 %.3fms  p95 %.3fms  p99 %.3fms (framed→decoded)\n",
			rep.Latency.Quantile(0.50)/1e6,
			rep.Latency.Quantile(0.95)/1e6,
			rep.Latency.Quantile(0.99)/1e6)
	}
	fmt.Printf("digest:  %#016x\n", rep.FrameDigest)
}
