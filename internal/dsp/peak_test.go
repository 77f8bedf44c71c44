package dsp

import (
	"cmp"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// findHypot is the reference FindInto: every sample's magnitude through
// cmplx.Abs, no squared-magnitude prefilter, then the same
// magnitude-greedy spacing suppression.
func findHypot(pd PeakDetector, profile []complex128, refEnergy float64) []Peak {
	thr := pd.Threshold(refEnergy)
	minSp := max(pd.MinSpacing, 1)
	var cands []Peak
	for i := range profile {
		m := cmplx.Abs(profile[i])
		if m <= thr ||
			(i > 0 && cmplx.Abs(profile[i-1]) > m) ||
			(i < len(profile)-1 && cmplx.Abs(profile[i+1]) >= m) {
			continue
		}
		cands = append(cands, Peak{Pos: i, Mag: m, Value: profile[i], Frac: parabolicPeak(profile, i)})
	}
	slices.SortFunc(cands, func(a, b Peak) int {
		if a.Mag != b.Mag {
			return cmp.Compare(b.Mag, a.Mag)
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	var keep []Peak
	for _, c := range cands {
		if !slices.ContainsFunc(keep, func(k Peak) bool { return abs(c.Pos-k.Pos) < minSp }) {
			keep = append(keep, c)
		}
	}
	slices.SortFunc(keep, func(a, b Peak) int { return cmp.Compare(a.Pos, b.Pos) })
	return keep
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// samePeaks compares peak lists bit for bit.
func samePeaks(t *testing.T, got, want []Peak) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d peaks, reference %d: %+v vs %+v", len(got), len(want), got, want)
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if g.Pos != w.Pos || bits(g.Mag) != bits(w.Mag) || bits(g.Frac) != bits(w.Frac) ||
			bits(real(g.Value)) != bits(real(w.Value)) || bits(imag(g.Value)) != bits(imag(w.Value)) {
			t.Fatalf("peak %d: %+v, reference %+v", i, g, w)
		}
	}
}

// nearThreshold builds a profile whose magnitudes straddle thr by
// relative offsets down to one ulp, at random phases, with zeros,
// subnormals and huge values mixed in.
func nearThreshold(r *rand.Rand, n int, thr float64) []complex128 {
	p := make([]complex128, n)
	for i := range p {
		var mag float64
		switch r.Intn(8) {
		case 0:
			mag = 0
		case 1:
			mag = 5e-324 * float64(r.Intn(1000))
		case 2:
			mag = 1e300 * r.Float64()
		case 3:
			mag = thr * r.Float64()
		default:
			mag = thr * (1 + (r.Float64()-0.5)*math.Pow(10, -float64(r.Intn(16))))
		}
		s, c := math.Sincos(2 * math.Pi * r.Float64())
		p[i] = complex(mag*c, mag*s)
		if r.Intn(10) == 0 {
			p[i] = complex(mag, 0) // axis-aligned: hypot is exact there
		}
	}
	return p
}

// TestFindIntoMatchesHypotReference pins the squared-magnitude
// prefilter on realistic thresholds, a zero, a negative and a
// subnormal one.
func TestFindIntoMatchesHypotReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, thr := range []float64{41.6, 1, 1e-3, 0, -2, 1e-160, 5e-324, 1e160} {
		for trial := 0; trial < 20; trial++ {
			p := nearThreshold(r, 300, math.Abs(thr))
			pd := PeakDetector{Beta: 1, RefAmp: 1, MinSpacing: 1 + r.Intn(8)}
			var dst []Peak
			samePeaks(t, pd.FindInto(dst, p, thr), findHypot(pd, p, thr))
		}
	}
}

// FuzzFindIntoPrefilter fuzzes the prefilter near the threshold: any
// detector settings, any profile, the same peaks as the reference.
func FuzzFindIntoPrefilter(f *testing.F) {
	f.Add(int64(1), 0.65, 0.8, 41.6, 200, 16)
	f.Add(int64(2), 1.0, 0.0, 1e-300, 50, 1)
	f.Add(int64(3), -0.5, 1.0, 3.0, 80, 4)
	f.Fuzz(func(t *testing.T, seed int64, beta, refAmp, refEnergy float64, n, minSp int) {
		if n < 0 || n > 4096 {
			t.Skip()
		}
		pd := PeakDetector{Beta: beta, RefAmp: refAmp, MinSpacing: minSp}
		thr := pd.Threshold(refEnergy)
		if math.IsNaN(thr) || math.IsInf(thr, 0) {
			thr = 1
		}
		p := nearThreshold(rand.New(rand.NewSource(seed)), n, math.Abs(thr))
		samePeaks(t, pd.Find(p, refEnergy), findHypot(pd, p, refEnergy))
	})
}
