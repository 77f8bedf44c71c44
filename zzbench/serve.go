package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"zigzag/internal/core"
	"zigzag/internal/metrics"
	"zigzag/internal/obs"
	"zigzag/internal/runner"
	"zigzag/internal/serve"
	"zigzag/internal/session"
)

// The serve-live workload serves serveStreams independent pre-rendered
// streams back to back, each through its own serve.Engine fed by this
// one goroutine with no pacing and PollBudget 0, so nothing is shed and
// loss is a pure function of seed and code. The engines are served the
// way zigzag-serve -listen serves: a metrics registry, an event ring
// and pprof phase labels attached, no listener. Each stream is a fresh
// channel draw (serve.Synthetic fixes its senders' channels for a
// stream's lifetime); one stream alone lets that single draw swing loss
// and cost by tens of percent from seed to seed.
const (
	serveK        = 2  // mutually hidden senders per collision
	servePayload  = 60 // bytes per frame
	serveStreams  = 96
	serveEpisodes = 40 // collision episodes per stream
	// cleanEvery makes every 4th episode a single clean packet.
	cleanEvery = 4
	// chunkSize is the engine's read size, which the traced replay
	// mirrors.
	chunkSize = 512
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 5
)

// stream is one pre-rendered synthetic stream.
type stream struct {
	id      int          // index among the workload's streams
	samples []complex128 // mapped outside the Go heap
	clients []core.Client
	offered map[frameID]bool
}

// place copies samples into memory mapped outside the Go heap. The
// collector sets its next goal from the live heap, so ~220 MB of input
// held on the heap would make collections far rarer than in a server
// that reads its stream a chunk at a time; mapped input leaves the heap
// to the engine. The mapping lives until the process exits.
func (st *stream) place(samples []complex128) error {
	size := len(samples) * int(unsafe.Sizeof(complex128(0)))
	mem, err := syscall.Mmap(-1, 0, max(size, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping %d samples: %w", len(samples), err)
	}
	st.samples = unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(mem))), len(samples))
	copy(st.samples, samples)
	return nil
}

// observers are the serve-live attachments, shared by every engine of
// a run as one long-lived exporter's would be.
type observers struct {
	reg  *obs.Registry
	ring *obs.Ring
}

func newObservers() *observers {
	return &observers{reg: obs.NewRegistry(), ring: obs.NewRing(obs.DefaultRingCapacity)}
}

// engineConfig is the engine configuration a stream is served with;
// ob nil serves it unobserved.
func engineConfig(st *stream, ob *observers) serve.Config {
	cfg := serve.Config{Clients: st.clients, Chunk: chunkSize}
	if ob != nil {
		cfg.Metrics, cfg.Events, cfg.ProfileLabels = ob.reg, ob.ring, true
	}
	return cfg
}

// setupServe renders the workload's streams into memory and builds an
// engine for each, setupRepeats times. It returns the first set-up's
// streams, the median set-up time in seconds and the first set-up's
// time inside serve.Synthetic.Read. Every repeat must render the same
// samples.
func setupServe(seed int64, ob *observers) ([]*stream, float64, time.Duration, error) {
	var streams []*stream
	var readTime time.Duration
	var times []float64
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		var read time.Duration
		for i := 0; i < serveStreams; i++ {
			var want *stream
			if r > 0 {
				want = streams[i]
			}
			st, d, err := renderStream(runner.TrialSeed(seed, i), want)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("stream %d: %w", i, err)
			}
			read += d
			serve.NewEngine(engineConfig(st, ob)).Close()
			if r == 0 {
				st.id = i
				streams = append(streams, st)
			}
		}
		times = append(times, time.Since(start).Seconds())
		if r == 0 {
			readTime = read
		}
	}
	return streams, median(times), readTime, nil
}

// renderStream renders one stream and returns it with the time spent
// in Synthetic.Read. With want set it compares the samples against
// want's instead of keeping a second copy.
func renderStream(seed int64, want *stream) (*stream, time.Duration, error) {
	g, err := serve.NewSynthetic(serve.SynthConfig{
		Seed: seed, K: serveK, Episodes: serveEpisodes, Payload: servePayload, CleanEvery: cleanEvery,
	})
	if err != nil {
		return nil, 0, err
	}
	defer g.Close()
	var samples []complex128
	buf := make([]complex128, 1<<14)
	var read time.Duration
	n := 0
	for {
		t0 := time.Now()
		m, err := g.Read(buf)
		read += time.Since(t0)
		if want == nil {
			samples = append(samples, buf[:m]...)
		} else if n+m > len(want.samples) || !slices.Equal(buf[:m], want.samples[n:n+m]) {
			return nil, 0, fmt.Errorf("rendering the stream again gave other samples near sample %d", n)
		}
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if want != nil {
		if n != len(want.samples) {
			return nil, 0, fmt.Errorf("rendering the stream again gave %d samples, not %d", n, len(want.samples))
		}
		return want, read, nil
	}
	st := &stream{clients: g.Clients()}
	st.offered = offeredFrames(st.clients)
	if int64(len(st.offered)) != g.UniqueFrames {
		return nil, 0, fmt.Errorf("stream offers %d frames, the generator counted %d", len(st.offered), g.UniqueFrames)
	}
	if err := st.place(samples); err != nil {
		return nil, 0, err
	}
	return st, read, nil
}

// offeredFrames lists the frames a synthetic stream puts on the air:
// episode e carries one frame from each of the first k clients (the
// first one only on a clean episode), all with sequence number e.
func offeredFrames(clients []core.Client) map[frameID]bool {
	out := make(map[frameID]bool)
	for ep := 0; ep < serveEpisodes; ep++ {
		n := serveK
		if ep%cleanEvery == cleanEvery-1 {
			n = 1
		}
		for _, c := range clients[:n] {
			out[frameID{src: c.ID, seq: uint16(ep)}] = true
		}
	}
	return out
}

// sliceSource serves a pre-rendered stream to an engine.
type sliceSource struct {
	s   []complex128
	pos int
}

func (r *sliceSource) Read(p []complex128) (int, error) {
	if r.pos >= len(r.s) {
		return 0, io.EOF
	}
	n := copy(p, r.s[r.pos:])
	r.pos += n
	return n, nil
}

// memDelta is the allocation count and volume, and the collections,
// over measured calls.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

// serveEngine serves one stream through a fresh engine. With mem set it
// adds the allocations made and collections run inside Engine.Run to
// it. A panic inside Run comes back as a panicError; the engine is then
// not closed, so its session does not go back to the pool.
func serveEngine(st *stream, ob *observers, mem *memDelta) (*serve.Report, error) {
	e := serve.NewEngine(engineConfig(st, ob))
	var before, after runtime.MemStats
	if mem != nil {
		runtime.ReadMemStats(&before)
	}
	var rep *serve.Report
	var err error
	if perr := catch(func() { rep, err = e.Run(&sliceSource{s: st.samples}) }); perr != nil {
		return nil, perr
	}
	if mem != nil {
		runtime.ReadMemStats(&after)
		mem.mallocs += after.Mallocs - before.Mallocs
		mem.bytes += after.TotalAlloc - before.TotalAlloc
		mem.gcs += after.NumGC - before.NumGC
	}
	e.Close()
	return rep, err
}

// panicError is a panic raised while a stream was served.
type panicError struct{ v any }

func (p panicError) Error() string { return fmt.Sprintf("serving the stream panicked: %v", p.v) }

// catch runs fn and returns a panic it raises as a panicError.
func catch(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicError{v}
		}
	}()
	fn()
	return nil
}

// driven is what one stream delivered through the receiver's public
// streaming surface.
type driven struct {
	delivered []frameID // in delivery order, duplicates included
	frames    int64     // delivered events carrying a frame
	failed    int64     // delivered events without one
	digest    uint64    // serve.Report.FrameDigest's fold of the frames
	stats     core.StreamStats
	// failure is a panic that ended the stream early; such a stream is
	// a failed operation, and its receiver is not reused.
	failure error
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// tally folds one reception's events the way the engine does.
func (d *driven) tally(evs []core.Event) {
	for i := range evs {
		f := evs[i].Frame
		if f == nil {
			d.failed++
			continue
		}
		d.frames++
		d.delivered = append(d.delivered, frameID{src: f.Src, seq: f.Seq})
		h := d.digest
		for _, b := range []byte{f.Src, f.Dst, byte(f.Seq), byte(f.Seq >> 8), byte(evs[i].Via)} {
			h = (h ^ uint64(b)) * fnvPrime
		}
		for _, b := range f.Payload {
			h = (h ^ uint64(b)) * fnvPrime
		}
		d.digest = h
	}
}

// Span names of the traced replay, one per layer boundary it crosses.
const (
	spanDrive   = "drive" // root: the whole pass
	spanSession = "session"
	spanIngest  = "phy.ingest"
	spanFlush   = "phy.flush"
	spanPoll    = "core.poll"
)

// drive re-serves a stream through session.StreamReceiver and the
// receiver's Ingest, PollOne and FlushStream, in the engine's order,
// with a span around each call. sink and fstats are attached to the
// receiver for the pass (either may be nil).
func drive(st *stream, sink obs.Sink, fstats *obs.FramerStats, tr *tracer, root int) *driven {
	sp := tr.begin(spanSession, root)
	sess := session.Acquire(core.DefaultConfig())
	z := sess.StreamReceiver(st.clients, core.StreamConfig{})
	z.Obs = sink
	z.SetFramerStats(fstats)
	tr.end(sp)

	d := &driven{digest: fnvOffset}
	pollAll := func() {
		for {
			sp := tr.begin(spanPoll, root)
			evs, _, ok := z.PollOne()
			tr.end(sp)
			if !ok {
				return
			}
			d.tally(evs)
		}
	}
	d.failure = catch(func() {
		for off := 0; off < len(st.samples); off += chunkSize {
			sp := tr.begin(spanIngest, root)
			z.Ingest(st.samples[off:min(off+chunkSize, len(st.samples))])
			tr.end(sp)
			pollAll()
		}
		sp = tr.begin(spanFlush, root)
		z.FlushStream()
		tr.end(sp)
		pollAll()
	})
	if d.failure != nil {
		return d
	}
	d.stats = z.Stream()

	sp = tr.begin(spanSession, root)
	z.Obs = nil
	z.SetFramerStats(nil)
	session.Release(sess)
	tr.end(sp)
	return d
}

// drivePass drives every stream once under one root span.
func drivePass(streams []*stream, sink obs.Sink, fstats *obs.FramerStats, tr *tracer) []*driven {
	root := tr.begin(spanDrive, -1)
	out := make([]*driven, len(streams))
	for i, st := range streams {
		out[i] = drive(st, sink, fstats, tr, root)
	}
	tr.end(root)
	return out
}

// checkReport compares an engine's report with the traced replay's
// account of the same stream.
func checkReport(i int, rep *serve.Report, d *driven) error {
	switch {
	case rep.Dropped != 0:
		return fmt.Errorf("stream %d: the engine shed %d receptions", i, rep.Dropped)
	case rep.Polled != rep.Receptions:
		return fmt.Errorf("stream %d: the engine framed %d receptions but decoded %d", i, rep.Receptions, rep.Polled)
	case rep.Receptions != d.stats.Bursts:
		return fmt.Errorf("stream %d: the engine framed %d receptions, the replay %d", i, rep.Receptions, d.stats.Bursts)
	case rep.FrameDigest != d.digest:
		return fmt.Errorf("stream %d: engine frame digest %#x, replay digest %#x", i, rep.FrameDigest, d.digest)
	case rep.Frames != d.frames || rep.Failed != d.failed:
		return fmt.Errorf("stream %d: engine delivered %d frames and %d failures, the replay %d and %d", i, rep.Frames, rep.Failed, d.frames, d.failed)
	}
	return nil
}

// deliveries sums the replay's account of a pass: distinct offered
// frames delivered, duplicate deliveries, frames offered and
// receptions. A failed stream's frames count as offered and lost.
type deliveries struct {
	distinct, duplicates, offered int
	receptions                    int64
}

func countDeliveries(streams []*stream, ds []*driven) (deliveries, error) {
	var t deliveries
	for i, d := range ds {
		t.offered += len(streams[i].offered)
		if d.failure != nil {
			continue
		}
		distinct, dup, err := frameLoss(streams[i].offered, d.delivered)
		if err != nil {
			return t, fmt.Errorf("stream %d: %w", streams[i].id, err)
		}
		t.distinct += distinct
		t.duplicates += dup
		t.receptions += d.stats.Bursts
	}
	if t.distinct == 0 {
		return t, fmt.Errorf("no frame was delivered")
	}
	if beyond(int(t.receptions), 900) < 10 {
		return t, fmt.Errorf("%d receptions leave fewer than ten beyond p90", t.receptions)
	}
	return t, nil
}

// loss is the share of offered frames never delivered.
func (t deliveries) loss() float64 {
	return float64(t.offered-t.distinct) / float64(t.offered)
}

// runServe runs the serve-live workload: the measured passes, or with
// o.trace the traced pass.
func runServe(o options) (*result, error) {
	ob := newObservers()
	streams, setupS, readTime, err := setupServe(o.seed, ob)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// An unmeasured replay pass names the delivered frames (the engine
	// reports only counts and a digest), finds the streams that fail,
	// and warms the decoder up.
	ref := drivePass(streams, nil, nil, newTracer())
	for i, d := range ref {
		if d.failure != nil {
			fmt.Fprintf(os.Stderr, "zzbench: workload serve-live seed %d: stream %d fails: %v\n", o.seed, i, d.failure)
		}
	}
	if o.trace {
		return traceServe(o, streams, ref, ob, readTime)
	}
	tot, err := countDeliveries(streams, ref)
	if err != nil {
		return nil, err
	}

	// Each measured pass serves every stream once. A stream's time is
	// its median over the passes, so that a pass another process slowed
	// moves the result less. A failed stream must fail again in the
	// engine; it adds no time or latency.
	lat := metrics.NewQuantileSketch(0.01)
	times := make([][]float64, len(streams))
	passes, failed := 0, 0
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for {
		passStart := time.Now()
		for i, st := range streams {
			rep, err := serveEngine(st, ob, nil)
			if ref[i].failure != nil {
				if _, ok := err.(panicError); !ok {
					return nil, fmt.Errorf("stream %d: the replay failed (%v), the engine did not", i, ref[i].failure)
				}
				failed++
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("stream %d: %w", i, err)
			}
			if err := checkReport(i, rep, ref[i]); err != nil {
				return nil, fmt.Errorf("pass %d: %w", passes, err)
			}
			times[i] = append(times[i], rep.Elapsed.Seconds())
			lat.Merge(rep.Latency)
		}
		passes++
		// Stop before a pass that would end past the budget.
		if time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}
	secs, served := 0.0, 0
	for _, ts := range times {
		if len(ts) > 0 {
			secs += median(ts)
			served++
		}
	}
	if ob.ring.Published() == 0 {
		return nil, fmt.Errorf("the observed engine emitted no events")
	}

	lossShare := tot.loss()
	ms, err := report(endToEnd, map[string]float64{
		"frames_per_s":    float64(tot.distinct) / secs,
		"latency_p50_ms":  lat.Quantile(0.50) / 1e6,
		"latency_p90_ms":  lat.Quantile(0.90) / 1e6,
		"loss_ratio":      lossShare,
		"trials_per_s":    float64(served*serveEpisodes) / secs,
		"bit_error_ratio": lossShare / 2,
		"setup_s":         setupS,
	}, false)
	if err != nil {
		return nil, err
	}
	// An operation is one stream served. checkReport failed the run on
	// any shed reception.
	return &result{Correct: true, Attempted: int64(passes * len(streams)), Failed: int64(failed), Metrics: ms}, nil
}

// traceServe is serve-live's traced run, three passes over the streams
// that did not fail in the reference replay:
//   - each stream served observed, with MemStats read around Engine.Run,
//     then unobserved, for the observation overhead;
//   - each stream served observed again, under the CPU profiler, so the
//     profile holds Engine.Run and the runtime work it causes;
//   - the traced replay, with its spans and a counting event sink.
func traceServe(o options, all []*stream, ref []*driven, ob *observers, readTime time.Duration) (*result, error) {
	var streams []*stream
	for i, st := range all {
		if ref[i].failure == nil {
			streams = append(streams, st)
		}
	}

	var mem memDelta
	var runTime, plainTime time.Duration
	reps := make([]*serve.Report, len(streams))
	for i, st := range streams {
		rep, err := serveEngine(st, ob, &mem)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", st.id, err)
		}
		reps[i] = rep
		runTime += rep.Elapsed
		plain, err := serveEngine(st, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("stream %d unobserved: %w", st.id, err)
		}
		if plain.FrameDigest != rep.FrameDigest {
			return nil, fmt.Errorf("stream %d: observed digest %#x, unobserved %#x", st.id, rep.FrameDigest, plain.FrameDigest)
		}
		plainTime += plain.Elapsed
	}
	published, dropped := ob.ring.Published(), ob.ring.Dropped()
	if published == 0 {
		return nil, fmt.Errorf("the observed engine emitted no events")
	}

	var profErr error
	prof, err := profileCPU(o.profileDir, fmt.Sprintf("serve-live-%d", o.seed), func() {
		for i, st := range streams {
			rep, err := serveEngine(st, ob, nil)
			if err == nil && rep.FrameDigest != reps[i].FrameDigest {
				err = fmt.Errorf("profiled digest %#x, first %#x", rep.FrameDigest, reps[i].FrameDigest)
			}
			if err != nil {
				profErr = fmt.Errorf("stream %d: %w", st.id, err)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, profErr
	}

	// The replay keeps the engine's ring and framer counters attached;
	// registration is idempotent, so these are the engine's counters.
	counts := &eventCounts{}
	sink := obs.SinkFunc(func(ev obs.Event) {
		counts.Emit(ev)
		ob.ring.Emit(ev)
	})
	fstats := &obs.FramerStats{
		Samples:    ob.reg.Counter("zigzag_framer_samples_total", ""),
		Bursts:     ob.reg.Counter("zigzag_framer_bursts_total", ""),
		ForcedCuts: ob.reg.Counter("zigzag_framer_forced_cuts_total", ""),
	}
	tr := newTracer()
	ds := drivePass(streams, sink, fstats, tr)
	for i, st := range streams {
		if ds[i].failure != nil {
			return nil, fmt.Errorf("stream %d: the reference replay served it, the traced one failed: %v", st.id, ds[i].failure)
		}
		if err := checkReport(st.id, reps[i], ds[i]); err != nil {
			return nil, err
		}
	}
	tot, err := countDeliveries(streams, ds)
	if err != nil {
		return nil, err
	}
	var frames int64
	for _, d := range ds {
		frames += d.frames
	}
	if counts.framesDelivered != frames {
		return nil, fmt.Errorf("%d deliver events carried a frame, the replay received %d frames", counts.framesDelivered, frames)
	}

	total, self := spanTotals(tr.spans)
	wall := float64(total[spanDrive])
	var samples int64
	for _, st := range streams {
		samples += int64(len(st.samples))
	}
	rx := float64(tot.receptions)
	c := counts
	res, err := traceResult(int64(len(all)), map[string]float64{
		"phy.framer.ns_per_sample":       float64(total[spanIngest]+total[spanFlush]) / float64(samples),
		"core.poll.busy_share":           float64(total[spanPoll]) / wall,
		"core.detect.occurrences_per_rx": float64(c.occurrences) / rx,
		"core.detect.redetects_per_rx":   float64(c.kinds[obs.KindRedetect]+c.kinds[obs.KindRedetectNone]) / rx,
		"core.store.aligns_per_rx":       float64(c.storeAligns()) / rx,
		"core.store.align_ok_ratio":      ratio(float64(c.jointDecodes()), float64(c.storeAligns())),
		"core.joint.decodes_per_rx":      float64(c.jointDecodes()) / rx,
		"core.joint.ok_ratio":            ratio(float64(c.kinds[obs.KindStoreJointOK]), float64(c.jointDecodes())),
		"core.sic.chunks_per_rx":         float64(c.sicChunks()) / rx,
		"core.sic.forced_share":          ratio(float64(c.kinds[obs.KindForce]), float64(c.sicChunks())),
		"core.deliver.duplicate_frames":  float64(tot.duplicates),
		"core.allocs_per_frame":          float64(mem.mallocs) / float64(tot.distinct),
		"core.alloc_bytes_per_frame":     float64(mem.bytes) / float64(tot.distinct),
		"runtime.gc_cycles_per_frame":    float64(mem.gcs) / float64(tot.distinct),
		"obs.events_per_rx":              float64(published) / rx,
		"obs.ring_dropped":               float64(dropped),
		"obs.overhead_ratio":             runTime.Seconds() / plainTime.Seconds(),
		"channel.render.ms_per_rx":       readTime.Seconds() * 1e3 / rx,
		"trace.overhead_ratio":           wall / float64(runTime),
		"trace.unattributed_share":       float64(self[spanDrive]) / wall,
		"heap.retained_mb":               retainedHeapMB(),
	}, prof)
	if err != nil {
		return nil, err
	}
	// An operation is one stream served; a failed one is left out of
	// every metric above.
	res.Failed = int64(len(all) - len(streams))
	return res, nil
}
