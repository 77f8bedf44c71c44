package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"zigzag/internal/frame"
	"zigzag/internal/obs"
)

// bothPasses decodes like DecodeWith but always runs the backward pass
// after the forward one: the decoder before forward-first decoding.
func bothPasses(t *testing.T, cfg Config, metas []PacketMeta, recs []*Reception) *Result {
	t.Helper()
	d, err := (&Scratch{}).newDecoder(cfg, metas, recs)
	if err != nil {
		t.Fatal(err)
	}
	d.runForward()
	d.runBackward()
	return d.assemble()
}

// TestBackwardPassRescuesFailedForward pins the case the backward pass
// exists for: at 10 dB both packets' forward candidates fail their
// checksums, and the MRC combination of the two passes (§4.3) decodes
// both. A decoder that never ran the backward pass would lose them.
func TestBackwardPassRescuesFailedForward(t *testing.T) {
	const noise = 0.05
	s := newScenario(t, 12, 300, []float64{10, 10}, []float64{0.003, -0.002}, noise)
	rng := rand.New(rand.NewSource(1012))
	rec1 := s.collide(t, rng, noise, []int{40, 40 + 644})
	rec2 := s.collide(t, rng, noise, []int{40, 40 + 236})
	res, err := Decode(s.cfg, s.metas, []*Reception{rec1, rec2})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Packets {
		if frame.Check(pr.BitsForward) {
			t.Fatalf("packet %d: forward candidate passes its checksum; the scenario no longer needs the backward pass", i)
		}
		if !pr.OK() || pr.BitsBackward == nil || pr.Source == "forward" {
			t.Fatalf("packet %d: not rescued by the backward pass (source %q, err %v)", i, pr.Source, pr.Err)
		}
		if !frame.SamePacket(pr.Frame, s.frames[i]) {
			t.Errorf("packet %d: rescued frame differs from the transmitted one", i)
		}
	}
	s.checkBER(t, res, 0)
}

// TestForwardFirstMatchesBothPasses pins the two gates of the backward
// pass against the decoder that always runs both passes. Over seeded
// decodes — pairs and single receptions, k=3 — Frame, Bits,
// BitsForward, Complete, Err and Residuals are always equal, and:
//
//   - when every forward candidate passes (needsBackward false), Source
//     reads "forward" and BitsBackward is nil;
//   - when the plan shows the pass would decode no packet down to the
//     preamble, the packets are equal in every field, BitsBackward and
//     Source included, and only Iterations is smaller;
//   - when the pass runs, the whole Result is equal.
func TestForwardFirstMatchesBothPasses(t *testing.T) {
	const noise = 0.05
	type tc struct {
		seed    int64
		payload int
		snrs    []float64
		offsets [][]int
	}
	cases := []tc{
		{61, 300, []float64{13, 13}, [][]int{{40, 840}, {40, 360}}},
		{3, 300, []float64{13, 13}, [][]int{{40, 600}, {40, 250}}},
		{12, 300, []float64{10, 10}, [][]int{{40, 684}, {40, 276}}},
		{1, 300, []float64{7, 7}, [][]int{{40, 277}, {40, 193}}},
		{4, 300, []float64{8, 8}, [][]int{{40, 388}, {40, 352}}},
		{13, 300, []float64{13, 13, 13}, [][]int{{40, 740, 1440}, {40, 340, 2140}, {940, 40, 1840}}},
		{2, 120, []float64{13, 13}, [][]int{{40, 426}}},
		{7, 120, []float64{20, 12}, [][]int{{40, 226}}},
	}
	fwdOK, planSkipped, ran := 0, 0, 0
	for _, c := range cases {
		name := fmt.Sprintf("seed=%d/snr=%g/k=%d", c.seed, c.snrs[0], len(c.snrs))
		if len(c.offsets) == 1 {
			name = fmt.Sprintf("seed=%d/snr=%v/single", c.seed, c.snrs)
		}
		t.Run(name, func(t *testing.T) {
			freqs := []float64{0.003, -0.002, 0.001}[:len(c.snrs)]
			s := newScenario(t, c.seed, c.payload, c.snrs, freqs, noise)
			rng := rand.New(rand.NewSource(c.seed + 1000))
			var recs []*Reception
			for _, off := range c.offsets {
				recs = append(recs, s.collide(t, rng, noise, off))
			}
			want := bothPasses(t, s.cfg, s.metas, recs)
			got, err := DecodeWith(&Scratch{}, s.cfg, s.metas, recs)
			if err != nil {
				t.Fatal(err)
			}
			d, err := (&Scratch{}).newDecoder(s.cfg, s.metas, recs)
			if err != nil {
				t.Fatal(err)
			}
			d.runForward()
			needs := d.needsBackward()
			plans := needs && d.planBackward()

			for i := range want.Packets {
				g, w := got.Packets[i], want.Packets[i]
				if !reflect.DeepEqual(g.Frame, w.Frame) || !reflect.DeepEqual(g.Bits, w.Bits) ||
					!reflect.DeepEqual(g.BitsForward, w.BitsForward) || g.Complete != w.Complete {
					t.Errorf("packet %d: frame/bits/complete differ: got %v via %q, both passes %v via %q", i, g.Frame, g.Source, w.Frame, w.Source)
				}
				if fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
					t.Errorf("packet %d: err %v, both passes %v", i, g.Err, w.Err)
				}
			}
			if len(got.Residuals) != len(want.Residuals) {
				t.Fatalf("%d residual buffers, both passes %d", len(got.Residuals), len(want.Residuals))
			}
			for r := range want.Residuals {
				g, w := got.Residuals[r], want.Residuals[r]
				if len(g) != len(w) {
					t.Fatalf("residual %d: length %d, both passes %d", r, len(g), len(w))
				}
				for k := range w {
					if math.Float64bits(real(g[k])) != math.Float64bits(real(w[k])) || math.Float64bits(imag(g[k])) != math.Float64bits(imag(w[k])) {
						t.Fatalf("residual %d differs at sample %d", r, k)
					}
				}
			}
			switch {
			case !needs:
				fwdOK++
				for i, pr := range got.Packets {
					if pr.BitsBackward != nil || pr.Source == "mrc" || pr.Source == "backward" {
						t.Errorf("packet %d: backward pass skipped, yet source %q with backward bits %v", i, pr.Source, pr.BitsBackward != nil)
					}
				}
			case !plans:
				planSkipped++
				if !reflect.DeepEqual(got.Packets, want.Packets) {
					t.Error("plan skipped the backward pass, yet the packets differ from both passes run back to back")
				}
				if got.Iterations >= want.Iterations {
					t.Errorf("plan skipped the backward pass, yet %d iterations vs %d for both passes", got.Iterations, want.Iterations)
				}
			default:
				ran++
				if !reflect.DeepEqual(got, want) {
					t.Error("backward pass ran, yet the result differs from both passes run back to back")
				}
			}
		})
	}
	if fwdOK == 0 || planSkipped == 0 || ran == 0 {
		t.Errorf("cases passed forward %d times, had the pass skipped by its plan %d times and ran it %d times; every branch needs coverage", fwdOK, planSkipped, ran)
	}
}

// bwdChunk is one backward commit as the decoder's debug hook sees it.
type bwdChunk struct{ pkt, rec, lo, hi int }

// frontiers lists every packet's backward frontier.
func frontiers(d *decoder) []int {
	var out []int
	for _, p := range d.pkts {
		out = append(out, p.front[bwd])
	}
	return out
}

// TestBackwardPlanMatchesPass pins the plan the backward gate reads:
// over seeded decodes — k=2 pairs, equal- and unequal-power
// single-reception collisions, forced chunks and k=3 — the plan
// commits the chunks the real pass commits, in the same order, and
// leaves every packet at the frontier the pass reaches. planBackward
// reports the preamble reached exactly when the pass reaches it, and
// leaves the frontiers, bwdRan, the iteration count and the event
// stream as it found them.
func TestBackwardPlanMatchesPass(t *testing.T) {
	const noise = 0.05
	cases := []struct {
		name    string
		seed    int64
		payload int
		snrs    []float64
		offsets [][]int
	}{
		{"pair", 1, 120, []float64{17, 13}, [][]int{{40, 721}, {40, 227}}},
		{"pair-10dB", 12, 300, []float64{10, 10}, [][]int{{40, 684}, {40, 276}}},
		{"single-equal", 2, 120, []float64{13, 13}, [][]int{{40, 426}}},
		{"single-strong-first", 1, 120, []float64{20, 12}, [][]int{{40, 721}}},
		{"single-weak-first", 6, 120, []float64{12, 20}, [][]int{{40, 488}}},
		{"k3", 13, 120, []float64{13, 13, 13}, [][]int{{40, 740, 1440}, {40, 340, 2140}, {940, 40, 1840}}},
		{"k3-length-unknown", 14, 120, []float64{9, 9, 9}, [][]int{{40, 240, 440}, {40, 340, 640}}},
	}
	forced := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			freqs := []float64{0.003, -0.002, 0.001}[:len(c.snrs)]
			s := newScenario(t, c.seed, c.payload, c.snrs, freqs, noise)
			rng := rand.New(rand.NewSource(c.seed + 1000))
			var recs []*Reception
			for _, off := range c.offsets {
				recs = append(recs, s.collide(t, rng, noise, off))
			}
			d, err := newDecoder(s.cfg, s.metas, recs)
			if err != nil {
				t.Fatal(err)
			}
			var planned, decoded []bwdChunk
			d.debugHook = func(pass string, o *occState, lo, hi int) {
				switch pass {
				case "plan":
					planned = append(planned, bwdChunk{o.p.id, o.r.id, lo, hi})
				case "bwd":
					decoded = append(decoded, bwdChunk{o.p.id, o.r.id, lo, hi})
				}
			}
			events := 0
			d.obs = obs.SinkFunc(func(ev obs.Event) {
				events++
				if ev.Kind == obs.KindForce && ev.List[1] == 1 {
					forced++
				}
			})
			d.runForward()

			before, iters, evs := frontiers(d), d.iters, events
			reached := d.planBackward()
			if got := frontiers(d); !reflect.DeepEqual(got, before) {
				t.Errorf("planBackward left frontiers %v, found %v", got, before)
			}
			if d.bwdRan || d.iters != iters || events != evs {
				t.Errorf("planBackward set bwdRan=%v, counted %d iterations and emitted %d events", d.bwdRan, d.iters-iters, events-evs)
			}
			planned = planned[:0]
			if d.anchorTails() {
				d.schedule(bwd, true)
			}
			plannedTo := frontiers(d)

			d.runBackward()
			if !reflect.DeepEqual(planned, decoded) {
				t.Errorf("plan chunks %v, pass chunks %v", planned, decoded)
			}
			if got := frontiers(d); !reflect.DeepEqual(got, plannedTo) {
				t.Errorf("plan frontiers %v, pass frontiers %v", plannedTo, got)
			}
			passReached := false
			for _, p := range d.pkts {
				if d.finished(bwd, p) {
					passReached = true
				}
			}
			if reached != passReached {
				t.Errorf("plan reports the preamble reached %v, the pass %v", reached, passReached)
			}
			if len(decoded) == 0 {
				t.Error("the backward pass committed no chunk; the case shows nothing")
			}
		})
	}
	if forced == 0 {
		t.Error("no case forced a backward chunk")
	}
}

// TestPacketErrorText pins the three failure texts a PacketError
// formats — the trace goldens read them through the store and k-way
// packet-error events — and which cause errors.Is finds.
func TestPacketErrorText(t *testing.T) {
	for _, tc := range []struct {
		e       PacketError
		text    string
		stalled bool
	}{
		{PacketError{Packet: 1, Decoded: 40, Symbols: -1}, "zigzag: packet 1: length never learned: zigzag: chunk scheduler stalled", true},
		{PacketError{Packet: 0, Decoded: 120, Symbols: 700}, "zigzag: packet 0 incomplete (120/700 symbols): zigzag: chunk scheduler stalled", true},
		{PacketError{Packet: 2, Decoded: 700, Symbols: 700}, "zigzag: packet 2: no candidate passed the checksum", false},
	} {
		var err error = &tc.e
		if err.Error() != tc.text {
			t.Errorf("%+v: text %q, want %q", tc.e, err.Error(), tc.text)
		}
		if errors.Is(err, ErrNoProgress) != tc.stalled || errors.Is(err, errAllCandidatesFailed) == tc.stalled {
			t.Errorf("%+v: errors.Is(ErrNoProgress) = %v, want %v", tc.e, errors.Is(err, ErrNoProgress), tc.stalled)
		}
	}
}
