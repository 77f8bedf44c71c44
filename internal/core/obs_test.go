package core

import (
	"math/rand"
	"testing"

	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// runHiddenPair drives the §5.1d store-then-match workflow on a fresh
// receiver wearing whatever observers the caller attached.
func runHiddenPair(t *testing.T, z *Receiver, s *scenario) {
	t.Helper()
	rng := rand.New(rand.NewSource(24))
	z.Receive(s.render(t, rng, 0.05, []int{40, 40 + 700}))
	evs := z.Receive(s.render(t, rng, 0.05, []int{40, 40 + 260}))
	decoded := 0
	for _, ev := range evs {
		if ev.Frame != nil {
			decoded++
		}
	}
	if decoded != 2 {
		t.Fatalf("hidden pair decoded %d frames, want 2", decoded)
	}
}

// TestReinitPreservesObservers pins the satellite fix: Reinit used to
// nil the trace hook, so a pooled receiver silently went dark after its
// first recycle. Obs and the framer stats must both survive.
func TestReinitPreservesObservers(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 23, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))

	var events []obs.Event
	fs := &obs.FramerStats{Samples: &obs.Counter{}}
	z.Obs = obs.SinkFunc(func(ev obs.Event) { events = append(events, ev) })
	z.SetFramerStats(fs)

	z.Reinit(s.cfg, onlineClients(s))
	if z.Obs == nil {
		t.Fatal("Reinit dropped Obs")
	}

	// The preserved observer must actually fire after the recycle...
	runHiddenPair(t, z, s)
	if len(events) == 0 {
		t.Fatal("no typed events after Reinit")
	}
	// ...and the framer attachment must survive Reinit + SetStream.
	z.Reinit(s.cfg, onlineClients(s))
	z.SetStream(StreamConfig{})
	z.Ingest(make([]complex128, 100))
	if fs.Samples.Value() != 100 {
		t.Fatalf("framer stats counted %d samples after Reinit+SetStream, want 100", fs.Samples.Value())
	}
}

// TestTraceAdapterBitIdentity pins the printf surface across the typed
// migration: a trace adapter is now just a SinkFunc printing
// Event.String, and the known outcome lines of the canonical hidden
// pair must read exactly as the historical stringly hook printed them,
// behind the "[rec N] " prefix.
func TestTraceAdapterBitIdentity(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 23, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))

	var lines []string
	z.Obs = obs.SinkFunc(func(ev obs.Event) { lines = append(lines, ev.String()) })
	runHiddenPair(t, z, s)

	// The decisive moments of the canonical run, verbatim.
	want := map[string]bool{
		"[rec 1] single-reception decode: ok=0/2 occs=[40 740]": false,
		"[rec 2] store 0: joint decode ok":                      false,
	}
	for _, l := range lines {
		if _, ok := want[l]; ok {
			want[l] = true
		}
	}
	for l, seen := range want {
		if !seen {
			t.Errorf("missing verbatim %q line in %q", l, lines)
		}
	}
}

// TestReceiverEmitsTypedEvents checks the structural event coverage of
// one store-and-match cycle: detection on both receptions, scheduler
// and peel activity, the store resolution, amplitude learning, and a
// delivery per packet.
func TestReceiverEmitsTypedEvents(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 23, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	z := NewReceiver(s.cfg, onlineClients(s))
	kinds := map[obs.Kind]int{}
	var events []obs.Event
	z.Obs = obs.SinkFunc(func(ev obs.Event) {
		kinds[ev.Kind]++
		events = append(events, ev)
	})
	runHiddenPair(t, z, s)

	if kinds[obs.KindDetect] != 2 {
		t.Errorf("detect events = %d, want 2 (one per reception)", kinds[obs.KindDetect])
	}
	if kinds[obs.KindSchedule] == 0 || kinds[obs.KindPeel] == 0 {
		t.Errorf("scheduler/peel events missing: %v", kinds)
	}
	if kinds[obs.KindStoreJointOK] != 1 {
		t.Errorf("store_joint_ok = %d, want 1", kinds[obs.KindStoreJointOK])
	}
	if kinds[obs.KindDeliver] != 2 {
		t.Errorf("deliver = %d, want 2", kinds[obs.KindDeliver])
	}
	if kinds[obs.KindAmpLearn] != 2 {
		t.Errorf("amp_learn = %d, want 2 (one per client)", kinds[obs.KindAmpLearn])
	}
	// Events carry the reception sequence they belong to.
	for _, ev := range events {
		if ev.Kind == obs.KindDetect && ev.Rec != 1 && ev.Rec != 2 {
			t.Errorf("detect event with rec %d", ev.Rec)
		}
	}
	// Deliver operands: A=client, B=via, C=decoded.
	for _, ev := range events {
		if ev.Kind == obs.KindDeliver {
			if ev.B != int64(ViaZigzag) || ev.C != 1 {
				t.Errorf("deliver operands %+v, want via=zigzag decoded=1", ev)
			}
		}
	}
}

// TestIngestObservedStillAllocFree re-pins the steady-state zero-alloc
// contract with a ring sink attached: the framing/queueing/polling
// layer's events (forced cuts, sheds, detections) are fixed-size values
// into a preallocated ring, so even the OBSERVED path allocates
// nothing. (The unobserved pin lives in TestIngestSteadyStateAllocFree;
// the disabled path is one nil check on top of that.)
func TestIngestObservedStillAllocFree(t *testing.T) {
	s := newScenario(t, 97, 160, []float64{14}, []float64{0.003}, 0.05)
	z := NewReceiver(s.cfg, onlineClients(s))
	z.Obs = obs.NewRing(64)
	z.SetStream(StreamConfig{})
	rng := rand.New(rand.NewSource(98))
	junk := make([]complex128, 3000)
	for i := range junk {
		junk[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.02
	}
	gap := make([]complex128, phy.DefaultIdleGap+9)
	op := func() {
		z.Ingest(junk)
		z.Ingest(gap)
		for {
			if _, _, ok := z.PollOne(); !ok {
				break
			}
		}
	}
	op() // warm up window + queue arenas
	if n := testing.AllocsPerRun(30, op); n != 0 {
		t.Errorf("observed ingest+poll cycle: %v allocs per run, want 0", n)
	}
}

// TestFramerStatsCounting pins the framer's counter semantics: samples
// count every pushed sample, bursts count emissions (forced or idle-
// closed), forced cuts count only MaxWindow emissions, and a nil stats
// attachment is simply not counted.
func TestFramerStatsCounting(t *testing.T) {
	fs := &obs.FramerStats{Samples: &obs.Counter{}, Bursts: &obs.Counter{}, ForcedCuts: &obs.Counter{}}
	f := phy.NewFramer(phy.FramerConfig{IdleGap: 4, MaxWindow: 8})
	f.SetStats(fs)
	emit := func([]complex128, phy.BurstInfo) {}

	burst := make([]complex128, 20) // forced cuts at 8 and 16
	for i := range burst {
		burst[i] = 1
	}
	f.Push(burst, emit)
	f.Push(make([]complex128, 6), emit) // idle run closes the tail
	if got := fs.Samples.Value(); got != 26 {
		t.Errorf("samples = %d, want 26", got)
	}
	if got := fs.ForcedCuts.Value(); got != 2 {
		t.Errorf("forced cuts = %d, want 2", got)
	}
	if got := fs.Bursts.Value(); got != 3 {
		t.Errorf("bursts = %d, want 3 (two forced + one closed)", got)
	}
	// Partial attachment: only non-nil fields count; Reset keeps stats.
	f2 := phy.NewFramer(phy.FramerConfig{IdleGap: 4})
	f2.SetStats(&obs.FramerStats{})
	f2.Push(burst, emit)
	f2.Reset()
	if f2.Stats() == nil {
		t.Error("Reset dropped the stats attachment")
	}
}
