// Package serve is the streaming online-receiver engine behind
// zigzag-serve: a long-lived wrapper that pumps a continuous I/Q
// sample stream (synthetic traffic or a capture-file replay) through
// the core receiver's Ingest/Poll surface, applies an explicit
// load-shedding policy when the producer outruns the decoder, and
// accounts per-stream throughput and decode-latency percentiles on the
// metrics sketches.
//
// The paper's receiver is an online 802.11 AP (§5.1d); every workload
// before this package was a batch Monte-Carlo CLI over pre-cut
// reception buffers. The engine closes that gap without forking the
// decode path: core.Receiver.Receive is a thin wrapper over the same
// per-reception pipeline Ingest/Poll drive, so the streaming engine is
// bit-identical to the one-shot receiver whenever it is not shedding
// load; the serve tests pin that against a framer-plus-Receive loop.
//
// Backpressure: the core's pending-reception queue is bounded
// (core.StreamConfig.MaxPending). Under overload the engine either
// lets the queue shed its oldest receptions (PolicyDropOldest — newest
// data wins, as a live AP must) or additionally flips the receiver
// into degraded mode (PolicyDegrade — core.Receiver.SkipStoreMatch),
// skipping the expensive stored-collision matching while the backlog
// drains and restoring it below the low watermark; collisions are
// still stored, so ZigZag decoding is deferred, not forfeited. This is
// the adapt-don't-match-rates discipline: degrade output quality to
// what the decoder sustains instead of stalling the stream.
package serve

import (
	"context"
	"hash/fnv"
	"io"
	"runtime/pprof"
	"time"

	"zigzag/internal/core"
	"zigzag/internal/metrics"
	"zigzag/internal/obs"
	"zigzag/internal/session"
)

// Policy selects the engine's load-shedding behaviour under overload.
type Policy uint8

const (
	// PolicyDropOldest relies on the bounded pending queue alone: when
	// the producer outruns the decoder, the oldest framed receptions
	// are dropped (counted, never silent) and the newest decoded.
	PolicyDropOldest Policy = iota
	// PolicyDegrade additionally flips the receiver into degraded mode
	// (skip stored-collision matching) while the backlog is above the
	// high watermark, trading ZigZag joint decodes for drain rate, and
	// restores full fidelity below the low watermark.
	PolicyDegrade
)

// String names the policy the way the -policy flag spells it.
func (p Policy) String() string {
	switch p {
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyDegrade:
		return "degrade"
	default:
		return "unknown"
	}
}

// ParsePolicy parses a -policy flag value.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "drop-oldest", "drop":
		return PolicyDropOldest, true
	case "degrade":
		return PolicyDegrade, true
	}
	return 0, false
}

// Config parameterizes an Engine.
type Config struct {
	// Core is the receiver configuration (zero value: DefaultConfig).
	Core core.Config
	// Clients is the AP's client table.
	Clients []core.Client
	// Stream configures the ingest front end (framer gate, window
	// bound, pending-queue bound).
	Stream core.StreamConfig
	// Chunk is the read size the engine pulls from the source (default
	// 512 samples) — deliberately unrelated to any reception boundary;
	// the framer makes chunking semantically irrelevant.
	Chunk int
	// Policy is the overload behaviour (default PolicyDropOldest).
	Policy Policy
	// PollBudget caps how many pending receptions are decoded per
	// ingested chunk; 0 decodes everything pending (no artificial
	// backlog). The overload suites use a small budget as a
	// deterministic stand-in for a slow decoder.
	PollBudget int
	// HighWater/LowWater are the degraded-mode hysteresis thresholds
	// in pending receptions (defaults: ¾ of MaxPending, and 1).
	HighWater, LowWater int
	// Now is the engine's monotonic clock in nanoseconds (default
	// wall clock). Latency accounting and nothing else depends on it;
	// tests pin a fake to keep reports deterministic.
	Now func() int64

	// Metrics, when non-nil, is the observability registry the engine
	// publishes live counters, gauges and the latency histogram into
	// (zigzag_serve_* and zigzag_framer_* families); the values
	// reconcile exactly with the final Report. Ignored while the no-obs
	// hatch (obs.Disabled) is set.
	Metrics *obs.Registry
	// Events, when non-nil, is attached as the receiver's typed event
	// sink for the run (detection, store matching, peel outcomes) and
	// receives the engine's own degrade-transition events. Ignored while
	// the no-obs hatch is set.
	Events obs.Sink
	// ProfileLabels wraps the ingest/decode/poll phases in pprof labels
	// so CPU profiles attribute time per stage. Off by default: the
	// labeled path allocates per phase and is only for profiling runs.
	ProfileLabels bool
}

func (c *Config) fillDefaults() {
	if c.Core == (core.Config{}) {
		c.Core = core.DefaultConfig()
	}
	if c.Chunk <= 0 {
		c.Chunk = 512
	}
	maxPending := c.Stream.MaxPending
	if maxPending <= 0 {
		maxPending = core.DefaultMaxPending
	}
	if c.HighWater <= 0 {
		c.HighWater = maxPending * 3 / 4
		if c.HighWater < 2 {
			c.HighWater = 2
		}
	}
	if c.LowWater <= 0 {
		c.LowWater = 1
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
}

// Report is one stream's accounting: exact deterministic counts first
// (identical for any run of the same stream and policy at any chunk
// size), wall-clock figures after (host-dependent by nature).
type Report struct {
	// Stream/decode counts (deterministic).
	Samples    int64 `json:"samples"`
	Receptions int64 `json:"receptions"`  // bursts framed
	Polled     int64 `json:"polled"`      // receptions decoded
	Dropped    int64 `json:"dropped"`     // receptions shed by the queue
	ForcedCuts int64 `json:"forced_cuts"` // MaxWindow cuts
	Frames     int64 `json:"frames"`      // frames delivered
	Failed     int64 `json:"failed"`      // delivered events without a frame
	Standard   int64 `json:"standard"`    // frames by via
	Zigzag     int64 `json:"zigzag"`
	Capture    int64 `json:"capture"`
	// DegradedSpans counts PolicyDegrade engagements; StoredLeft is
	// the collision-store depth at end of stream.
	DegradedSpans int64 `json:"degraded_spans"`
	StoredLeft    int   `json:"stored_left"`
	// FrameDigest is an order-sensitive FNV-1a digest of every
	// delivered frame (src, dst, seq, payload) — the identity gate
	// compares it across chunk sizes and policies.
	FrameDigest uint64 `json:"frame_digest"`

	// Wall-clock figures.
	Elapsed       time.Duration           `json:"elapsed_ns"`
	PacketsPerSec float64                 `json:"packets_per_sec"`
	Latency       *metrics.QuantileSketch `json:"latency_ns"` // framed→decoded, ns
}

// serveVars is the engine's registered metric set (see Config.Metrics).
// Registration is idempotent, so engines sharing a registry share the
// counters — totals accumulate across runs, as a long-lived exporter
// wants.
type serveVars struct {
	samples, receptions, polled, dropped, forcedCuts *obs.Counter
	frames, failed                                   *obs.Counter
	viaStandard, viaZigzag, viaCapture               *obs.Counter
	degradedSpans                                    *obs.Counter
	degraded, pending, stored                        *obs.Gauge
	latency                                          *obs.Hist
	framer                                           *obs.FramerStats
}

func newServeVars(reg *obs.Registry) *serveVars {
	viaHelp := "Frames delivered by decode path."
	return &serveVars{
		samples:       reg.Counter("zigzag_serve_samples_total", "Stream samples ingested."),
		receptions:    reg.Counter("zigzag_serve_receptions_total", "Receptions framed out of the stream."),
		polled:        reg.Counter("zigzag_serve_polled_total", "Receptions decoded."),
		dropped:       reg.Counter("zigzag_serve_dropped_total", "Pending receptions shed by the bounded queue."),
		forcedCuts:    reg.Counter("zigzag_serve_forced_cuts_total", "Bursts cut by MaxWindow rather than idle air."),
		frames:        reg.Counter("zigzag_serve_frames_total", "Frames delivered."),
		failed:        reg.Counter("zigzag_serve_failed_total", "Delivered events without a decodable frame."),
		viaStandard:   reg.LabeledCounter("zigzag_serve_frames_via_total", `via="standard"`, viaHelp),
		viaZigzag:     reg.LabeledCounter("zigzag_serve_frames_via_total", `via="zigzag"`, viaHelp),
		viaCapture:    reg.LabeledCounter("zigzag_serve_frames_via_total", `via="capture"`, viaHelp),
		degradedSpans: reg.Counter("zigzag_serve_degraded_spans_total", "Degraded-mode engagements (PolicyDegrade)."),
		degraded:      reg.Gauge("zigzag_serve_degraded", "1 while degraded mode is engaged."),
		pending:       reg.Gauge("zigzag_serve_pending", "Framed receptions awaiting decode."),
		stored:        reg.Gauge("zigzag_serve_stored_collisions", "Unmatched collisions held in the store."),
		latency:       reg.Hist("zigzag_serve_latency_ns", "Framed-to-decoded latency in nanoseconds."),
		framer: &obs.FramerStats{
			Samples:    reg.Counter("zigzag_framer_samples_total", "Samples pushed through the burst framer."),
			Bursts:     reg.Counter("zigzag_framer_bursts_total", "Bursts emitted by the framer."),
			ForcedCuts: reg.Counter("zigzag_framer_forced_cuts_total", "Framer bursts cut by MaxWindow."),
		},
	}
}

// Engine pumps one Source through one receiver. Single-goroutine, like
// the receiver it drives.
type Engine struct {
	cfg      Config
	sess     *session.Session
	z        *core.Receiver
	chunk    []complex128
	rep      Report
	lat      *metrics.QuantileSketch
	digest   uint64
	degraded bool

	// vars is the live metric set (nil when uninstrumented); prevStream
	// is the last StreamStats mirrored into it, so syncStats adds exact
	// deltas to the shared counters instead of overwriting totals.
	vars       *serveVars
	prevStream core.StreamStats
}

// NewEngine builds an engine on a pooled session. Close releases the
// session.
func NewEngine(cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg}
	e.sess = session.Acquire(cfg.Core)
	e.z = e.sess.StreamReceiver(cfg.Clients, cfg.Stream)
	e.z.StreamStamp = func() int64 { return e.cfg.Now() }
	e.chunk = make([]complex128, cfg.Chunk)
	e.lat = metrics.NewQuantileSketch(0.01)
	e.digest = fnv.New64a().Sum64() // FNV offset basis
	// Observability attaches here and nowhere deeper: with the no-obs
	// hatch set (or nothing configured) the receiver keeps nil observers
	// and every instrumented path below stays a nil check.
	if !obs.Disabled() {
		if cfg.Metrics != nil {
			e.vars = newServeVars(cfg.Metrics)
			e.z.SetFramerStats(e.vars.framer)
		}
		if cfg.Events != nil {
			e.z.Obs = cfg.Events
		}
	}
	return e
}

// Receiver exposes the engine's receiver (tests inspect store depth
// and flags; the engine owns it between New and Close).
func (e *Engine) Receiver() *core.Receiver { return e.z }

// Close detaches the engine's observers and releases the session back
// to the pool (a pooled receiver must not keep publishing into a
// registry its next owner knows nothing about).
func (e *Engine) Close() {
	e.z.StreamStamp = nil
	e.z.SkipStoreMatch = false
	e.z.Obs = nil
	e.z.SetFramerStats(nil)
	session.Release(e.sess)
	e.sess, e.z = nil, nil
}

// Run pumps src to exhaustion and returns the stream's report. On a
// source error the report so far is returned alongside it.
func (e *Engine) Run(src Source) (*Report, error) {
	start := e.cfg.Now()
	var readErr error
	for {
		n, err := src.Read(e.chunk)
		if n > 0 {
			e.feed(e.chunk[:n])
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
	}
	e.finish()
	e.rep.Elapsed = time.Duration(e.cfg.Now() - start)
	if secs := e.rep.Elapsed.Seconds(); secs > 0 {
		e.rep.PacketsPerSec = float64(e.rep.Frames) / secs
	}
	e.rep.Latency = e.lat
	e.rep.FrameDigest = e.digest
	e.rep.StoredLeft = e.z.StoredCollisions()
	return &e.rep, readErr
}

// feed ingests one chunk and runs the consume side of the loop.
func (e *Engine) feed(chunk []complex128) {
	if e.cfg.ProfileLabels {
		e.feedProfiled(chunk)
		return
	}
	e.z.Ingest(chunk)
	e.applyPolicy()
	e.poll(e.cfg.PollBudget)
}

// feedProfiled mirrors feed under pprof phase labels, so CPU profiles
// attribute samples to ingest (framing) versus decode (the poll loop).
// A separate function because pprof.Do allocates per call — the
// unlabeled fast path must stay allocation-free.
func (e *Engine) feedProfiled(chunk []complex128) {
	ctx := context.Background()
	pprof.Do(ctx, pprof.Labels("phase", "ingest"), func(context.Context) {
		e.z.Ingest(chunk)
	})
	e.applyPolicy()
	pprof.Do(ctx, pprof.Labels("phase", "decode"), func(context.Context) {
		e.poll(e.cfg.PollBudget)
	})
}

// finish closes the stream and drains everything still pending.
func (e *Engine) finish() {
	e.z.FlushStream()
	if e.cfg.ProfileLabels {
		pprof.Do(context.Background(), pprof.Labels("phase", "poll"), func(context.Context) {
			e.poll(0)
		})
	} else {
		e.poll(0)
	}
	e.syncStats()
	if e.degraded {
		e.degraded = false
		e.z.SkipStoreMatch = false
		if e.vars != nil {
			e.vars.degraded.Set(0)
		}
		e.emitDegrade(0)
	}
}

// applyPolicy runs the degraded-mode hysteresis (PolicyDegrade only;
// PolicyDropOldest is enforced by the core's bounded queue).
func (e *Engine) applyPolicy() {
	if e.cfg.Policy != PolicyDegrade {
		return
	}
	if !e.degraded && e.z.Pending() >= e.cfg.HighWater {
		e.degraded = true
		e.z.SkipStoreMatch = true
		e.rep.DegradedSpans++
		if e.vars != nil {
			e.vars.degradedSpans.Inc()
			e.vars.degraded.Set(1)
		}
		e.emitDegrade(1)
	} else if e.degraded && e.z.Pending() <= e.cfg.LowWater {
		e.degraded = false
		e.z.SkipStoreMatch = false
		if e.vars != nil {
			e.vars.degraded.Set(0)
		}
		e.emitDegrade(0)
	}
}

// emitDegrade publishes a degrade transition on the event sink.
func (e *Engine) emitDegrade(engaged int64) {
	if e.cfg.Events == nil || obs.Disabled() {
		return
	}
	e.cfg.Events.Emit(obs.Event{Kind: obs.KindDegrade, A: engaged, B: int64(e.z.Pending())})
}

// poll decodes up to budget pending receptions (0 = all).
func (e *Engine) poll(budget int) {
	for i := 0; budget == 0 || i < budget; i++ {
		evs, info, ok := e.z.PollOne()
		if !ok {
			break
		}
		e.tally(evs)
		if info.Stamp != 0 {
			lat := float64(e.cfg.Now() - info.Stamp)
			e.lat.Add(lat)
			if e.vars != nil {
				e.vars.latency.Observe(lat)
			}
		}
	}
	e.syncStats()
}

// syncStats mirrors the core's stream counters into the report and
// publishes the exact deltas since the previous sync into the live
// metric set — the registry counters are shared across engines, so
// they accumulate rather than overwrite.
func (e *Engine) syncStats() {
	st := e.z.Stream()
	if e.vars != nil {
		e.vars.samples.Add(st.Samples - e.prevStream.Samples)
		e.vars.receptions.Add(st.Bursts - e.prevStream.Bursts)
		e.vars.polled.Add(st.Polled - e.prevStream.Polled)
		e.vars.dropped.Add(st.Dropped - e.prevStream.Dropped)
		e.vars.forcedCuts.Add(st.ForcedCuts - e.prevStream.ForcedCuts)
		e.prevStream = st
		e.vars.pending.Set(int64(e.z.Pending()))
		e.vars.stored.Set(int64(e.z.StoredCollisions()))
	}
	e.rep.Samples = st.Samples
	e.rep.Receptions = st.Bursts
	e.rep.Polled = st.Polled
	e.rep.Dropped = st.Dropped
	e.rep.ForcedCuts = st.ForcedCuts
}

// tally folds one reception's events into the report and the frame
// digest.
func (e *Engine) tally(evs []core.Event) {
	for i := range evs {
		ev := &evs[i]
		if ev.Frame == nil {
			e.rep.Failed++
			if e.vars != nil {
				e.vars.failed.Inc()
			}
			continue
		}
		e.rep.Frames++
		if e.vars != nil {
			e.vars.frames.Inc()
		}
		switch ev.Via {
		case core.ViaStandard:
			e.rep.Standard++
			if e.vars != nil {
				e.vars.viaStandard.Inc()
			}
		case core.ViaZigzag:
			e.rep.Zigzag++
			if e.vars != nil {
				e.vars.viaZigzag.Inc()
			}
		case core.ViaCapture:
			e.rep.Capture++
			if e.vars != nil {
				e.vars.viaCapture.Inc()
			}
		}
		e.digest = digestFrame(e.digest, ev)
	}
}

// digestFrame folds one delivered frame into the order-sensitive
// FNV-1a digest.
func digestFrame(h uint64, ev *core.Event) uint64 {
	const prime = 1099511628211
	mix := func(h uint64, b byte) uint64 { return (h ^ uint64(b)) * prime }
	f := ev.Frame
	h = mix(h, f.Src)
	h = mix(h, f.Dst)
	h = mix(h, byte(f.Seq))
	h = mix(h, byte(f.Seq>>8))
	h = mix(h, byte(ev.Via))
	for _, b := range f.Payload {
		h = mix(h, b)
	}
	return h
}
