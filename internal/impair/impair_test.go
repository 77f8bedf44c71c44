package impair

import (
	"math"
	"math/cmplx"
	"testing"
)

// testBuf returns a deterministic non-trivial complex buffer.
func testBuf(n int, seed int64) []complex128 {
	rng := newStream(seed)
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(2*rng.float64()-1, 2*rng.float64()-1)
	}
	return buf
}

// linkModels enumerates one configured instance of every link model.
func linkModels() map[string]LinkModel {
	return map[string]LinkModel{
		"fading-rayleigh": &Fading{Doppler: 3e-4},
		"fading-rician":   &Fading{Doppler: 3e-4, K: 8},
		"fading-block":    &Fading{Doppler: 3e-4, Block: 64},
		"multipath":       &Multipath{Doppler: 2e-4},
		"drift":           &Drift{Rate: 5e-7, PhaseNoise: 2e-3},
	}
}

// frontModels enumerates one configured instance of every front model.
func frontModels() map[string]FrontModel {
	return map[string]FrontModel{
		"interferer": &Interferer{Freq: 0.3, Amp: 0.8, MeanOn: 50, MeanOff: 150},
		"adc":        &ADC{Bits: 6, FullScale: 2},
	}
}

// TestLinkModelSeededDeterminism pins the core contract: a model
// application is a pure function of (seed, input, offset) — repeated
// applications agree bit for bit, and a model whose scratch was dirtied
// by other seeds agrees with a fresh instance.
func TestLinkModelSeededDeterminism(t *testing.T) {
	for name, m := range linkModels() {
		in := testBuf(2048, 7)
		a := append([]complex128(nil), in...)
		m.ApplyLink(12345, a, 40)
		// Dirty the scratch with a different seed and offset.
		b := append([]complex128(nil), in...)
		m.ApplyLink(999, b, 7)
		// Replay the original application on the dirtied model.
		c := append([]complex128(nil), in...)
		m.ApplyLink(12345, c, 40)
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("%s: replay diverged at sample %d: %v vs %v", name, i, a[i], c[i])
			}
		}
		// And a fresh instance must agree too (history independence).
		var fresh LinkModel
		switch v := m.(type) {
		case *Fading:
			fresh = &Fading{Doppler: v.Doppler, K: v.K, Paths: v.Paths, Block: v.Block}
		case *Multipath:
			fresh = &Multipath{Powers: v.Powers, Doppler: v.Doppler, Paths: v.Paths}
		case *Drift:
			fresh = &Drift{Rate: v.Rate, PhaseNoise: v.PhaseNoise}
		}
		d := append([]complex128(nil), in...)
		fresh.ApplyLink(12345, d, 40)
		for i := range a {
			if a[i] != d[i] {
				t.Fatalf("%s: fresh instance diverged at sample %d", name, i)
			}
		}
	}
}

// TestFrontModelSeededDeterminism is the front-end counterpart.
func TestFrontModelSeededDeterminism(t *testing.T) {
	for name, m := range frontModels() {
		in := testBuf(2048, 9)
		a := append([]complex128(nil), in...)
		m.ApplyFront(4242, a)
		b := append([]complex128(nil), in...)
		m.ApplyFront(1, b)
		c := append([]complex128(nil), in...)
		m.ApplyFront(4242, c)
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("%s: replay diverged at sample %d", name, i)
			}
		}
	}
}

// fullChain builds a chain with every model enabled.
func fullChain() *Chain {
	return &Chain{
		Link: []LinkModel{
			&Fading{Doppler: 3e-4, K: 2},
			&Multipath{Doppler: 2e-4},
			&Drift{Rate: 5e-7, PhaseNoise: 2e-3},
		},
		Front: []FrontModel{
			&Interferer{Freq: 0.3, Amp: 0.8, MeanOn: 50, MeanOff: 450},
			&ADC{Bits: 10},
		},
	}
}

// TestChainReceptionIndependence pins the per-reception seed tree: the
// r-th reception of a trial transforms identically no matter what was
// rendered before it, because its stream is TrialSeed(seed, r).
func TestChainReceptionIndependence(t *testing.T) {
	in := testBuf(1024, 11)
	render := func(c *Chain) []complex128 {
		buf := append([]complex128(nil), in...)
		c.BeginReception()
		c.ImpairEmission(0, buf, 60)
		c.ImpairEmission(1, buf, 200)
		c.ImpairFront(buf)
		return buf
	}
	a := fullChain()
	a.Reset(77)
	r0 := render(a)
	r1 := render(a)
	b := fullChain()
	b.Reset(77)
	if got := render(b); !equal(got, r0) {
		t.Fatal("reception 0 depends on chain history")
	}
	if got := render(b); !equal(got, r1) {
		t.Fatal("reception 1 depends on chain history")
	}
	// Distinct receptions and distinct trial seeds must differ.
	if equal(r0, r1) {
		t.Fatal("receptions 0 and 1 identical — reception derivation broken")
	}
	cdiff := fullChain()
	cdiff.Reset(78)
	if got := render(cdiff); equal(got, r0) {
		t.Fatal("distinct trial seeds produced identical receptions")
	}
}

func equal(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInactiveChain pins Active() for nil, empty and configured
// chains.
func TestInactiveChain(t *testing.T) {
	var nilChain *Chain
	if nilChain.Active() {
		t.Fatal("nil chain reported active")
	}
	if (&Chain{}).Active() {
		t.Fatal("empty chain reported active")
	}
	c := fullChain()
	if !c.Active() {
		t.Fatal("configured chain reported inactive")
	}
}

// TestProfileChain pins the Profile → Chain construction.
func TestProfileChain(t *testing.T) {
	if (Profile{}).Chain() != nil {
		t.Fatal("empty profile built a chain")
	}
	if !(Profile{}).Empty() || (Profile{Doppler: 1e-4}).Empty() {
		t.Fatal("Empty() wrong")
	}
	p := Profile{Doppler: 3e-4, RicianK: 5, MultipathDoppler: 1e-4,
		DriftRate: 1e-7, InterfDuty: 0.25, ADCBits: 8}
	c := p.Chain()
	if len(c.Link) != 3 || len(c.Front) != 2 {
		t.Fatalf("chain shape: %d link + %d front models, want 3+2", len(c.Link), len(c.Front))
	}
	if !c.Active() {
		t.Fatal("built chain inactive")
	}
	it := c.Front[0].(*Interferer)
	if d := it.Duty(); math.Abs(d-0.25) > 1e-9 {
		t.Fatalf("interferer duty %v, want 0.25", d)
	}
	if p.String() == "" || (Profile{}).String() != "none" {
		t.Fatalf("String(): %q / %q", p.String(), (Profile{}).String())
	}
}

// TestChainAllocFree pins the acceptance criterion's zero-allocation
// guarantee for the impair side: once scratch is grown, a full
// chain application (every model, link + front) allocates nothing.
func TestChainAllocFree(t *testing.T) {
	c := fullChain()
	c.Reset(5)
	buf := testBuf(4096, 3)
	work := append([]complex128(nil), buf...)
	op := func() {
		copy(work, buf)
		c.BeginReception()
		c.ImpairEmission(0, work, 80)
		c.ImpairFront(work)
	}
	op() // warm up scratch
	if n := testing.AllocsPerRun(50, op); n != 0 {
		t.Errorf("chain application: %v allocs per run in steady state, want 0", n)
	}
}

// TestDriftQuadraticPhase pins the second-order rotator recurrence
// against the closed form: with phase noise off, sample n is rotated
// by exactly e^{j·Rate·n²/2} (to recurrence rounding).
func TestDriftQuadraticPhase(t *testing.T) {
	d := &Drift{Rate: 3e-7}
	n := 4000
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = 1
	}
	d.ApplyLink(1, buf, 0)
	for _, i := range []int{0, 1, 100, 1777, n - 1} {
		want := cmplx.Exp(complex(0, d.Rate*float64(i)*float64(i)/2))
		if cmplx.Abs(buf[i]-want) > 1e-9 {
			t.Fatalf("sample %d: %v, want %v", i, buf[i], want)
		}
	}
}

// TestADCQuantization pins clipping and the quantization grid.
func TestADCQuantization(t *testing.T) {
	a := &ADC{Bits: 3, FullScale: 1}
	buf := []complex128{complex(5, -5), complex(0.49, -0.49), complex(1e-9, 0)}
	a.ApplyFront(0, buf)
	if real(buf[0]) != 1 || imag(buf[0]) != -1 {
		t.Fatalf("clip: got %v, want (1,-1)", buf[0])
	}
	// 3 signed bits → 2^(3−1)−1 = 3 positive steps per rail: 0.49
	// rounds to round(1.47)/3.
	want := math.Round(0.49*3) / 3
	if math.Abs(real(buf[1])-want) > 1e-12 {
		t.Fatalf("quantize: got %v, want %v", real(buf[1]), want)
	}
	if buf[2] != 0 {
		t.Fatalf("small value should quantize to 0, got %v", buf[2])
	}
}

// TestFadingBlockCoherence pins the coherence-block contract: within a
// block the gain is constant; across blocks it moves.
func TestFadingBlockCoherence(t *testing.T) {
	f := &Fading{Doppler: 1e-2, Block: 32}
	g := f.gainAt(3, nil, 256, 0)
	changes := 0
	for i := 1; i < len(g); i++ {
		if g[i] != g[i-1] {
			if i%32 != 0 {
				t.Fatalf("gain changed mid-block at sample %d", i)
			}
			changes++
		}
	}
	if changes < 4 {
		t.Fatalf("gain changed only %d times over 8 blocks", changes)
	}
}

// TestADCOneBit pins the Bits=1 edge: a hard limiter (±FullScale or 0),
// never NaN.
func TestADCOneBit(t *testing.T) {
	a := &ADC{Bits: 1, FullScale: 1}
	buf := []complex128{complex(0.7, -2), complex(0.2, 0.2)}
	a.ApplyFront(0, buf)
	for i, v := range buf {
		if math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
			t.Fatalf("sample %d quantized to NaN: %v", i, v)
		}
	}
	if real(buf[0]) != 1 || imag(buf[0]) != -1 {
		t.Fatalf("hard limit: got %v, want (1,-1)", buf[0])
	}
}
