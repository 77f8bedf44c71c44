package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"zigzag/internal/frame"
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

// TestForwardFirstMatchesBothPasses pins forward-first decoding
// against the decoder that always runs both passes: over several
// seeded decodes — some whose forward candidates all pass, some that
// need the backward pass, one k=3 — Frame, Bits, Err, Complete and
// Residuals are equal. Only Source ("forward" for "mrc"), BitsBackward
// and Iterations may differ, and only when the pass was skipped.
func TestForwardFirstMatchesBothPasses(t *testing.T) {
	const noise = 0.05
	type tc struct {
		seed    int64
		snr     float64
		offsets [][]int
	}
	cases := []tc{
		{61, 13, [][]int{{40, 840}, {40, 360}}},
		{3, 13, [][]int{{40, 600}, {40, 250}}},
		{12, 10, [][]int{{40, 684}, {40, 276}}},
		{1, 7, [][]int{{40, 277}, {40, 193}}},
		{4, 8, [][]int{{40, 388}, {40, 352}}},
		{13, 13, [][]int{{40, 740, 1440}, {40, 340, 2140}, {940, 40, 1840}}},
	}
	skipped, ran := 0, 0
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed=%d/snr=%g/k=%d", c.seed, c.snr, len(c.offsets[0])), func(t *testing.T) {
			snrs := make([]float64, len(c.offsets[0]))
			freqs := []float64{0.003, -0.002, 0.001}[:len(snrs)]
			for i := range snrs {
				snrs[i] = c.snr
			}
			s := newScenario(t, c.seed, 300, snrs, freqs, noise)
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
			for i := range want.Packets {
				g, w := got.Packets[i], want.Packets[i]
				if !reflect.DeepEqual(g.Frame, w.Frame) || !reflect.DeepEqual(g.Bits, w.Bits) || g.Complete != w.Complete {
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
			if got.Iterations < want.Iterations {
				skipped++
				for i, pr := range got.Packets {
					if pr.BitsBackward != nil || pr.Source == "mrc" || pr.Source == "backward" {
						t.Errorf("packet %d: backward pass skipped, yet source %q with backward bits %v", i, pr.Source, pr.BitsBackward != nil)
					}
				}
			} else {
				ran++
				if !reflect.DeepEqual(got.Packets, want.Packets) {
					t.Error("backward pass ran, yet the packets differ from both passes run back to back")
				}
			}
		})
	}
	if skipped == 0 || ran == 0 {
		t.Errorf("cases skipped the backward pass %d times and ran it %d times; both branches need coverage", skipped, ran)
	}
}
