package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// firTol is the agreement LSQ.EstimateFIR keeps with the stacked oracle
// on systems of at least 4m rows: relative L2 distance of the taps. The
// two solve the same ridge-regularized normal equations in a different
// order (lags plus edge corrections and Cholesky, against row-by-row
// accumulation and Gaussian elimination), so they agree to rounding,
// not bit for bit; Go may also fuse multiply-adds on some architectures.
const firTol = 1e-12

// tapDist returns ‖got − want‖₂ / ‖want‖₂, or ‖got − want‖₂ when want
// is zero.
func tapDist(got, want []complex128) float64 {
	var num, den float64
	for i := range want {
		e := got[i] - want[i]
		num += real(e)*real(e) + imag(e)*imag(e)
		den += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// finiteTaps reports whether every tap is finite.
func finiteTaps(taps []complex128) bool {
	for _, t := range taps {
		if cmplx.IsNaN(t) || cmplx.IsInf(t) {
			return false
		}
	}
	return true
}

// checkFIRAgainstOracle fits one system with s and with the stacked
// oracle and fails t unless they agree: the same error outcome, taps
// within firTol when the fit used at least 4m rows, and no non-finite tap
// without an error.
func checkFIRAgainstOracle(t *testing.T, s *LSQ, x, y []complex128, from, to, w int) {
	t.Helper()
	want, rows, werr := estimateFIRStacked(x, y, from, to, w)
	got, gerr := s.EstimateFIR(x, y, from, to, w)
	if gerr != nil && gerr != ErrSingular {
		t.Fatalf("EstimateFIR error %v, want nil or ErrSingular", gerr)
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("len(x)=%d len(y)=%d [%d,%d) w=%d: error %v, oracle %v", len(x), len(y), from, to, w, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !finiteTaps(got.Taps) {
		t.Fatalf("non-finite taps %v without an error", got.Taps)
	}
	if got.Center != w || len(got.Taps) != 2*w+1 {
		t.Fatalf("FIR shape (%d taps, centre %d), want (%d, %d)", len(got.Taps), got.Center, 2*w+1, w)
	}
	if rows >= 4*(2*w+1) {
		if d := tapDist(got.Taps, want.Taps); d > firTol {
			t.Fatalf("%d rows, w=%d: taps %v, oracle %v (relative L2 %.3g > %g)", rows, w, got.Taps, want.Taps, d, firTol)
		}
	}
}

// TestLSQBitIdenticalAndAllocFree pins the scratch-threaded solver: it
// agrees with the stacked oracle to firTol, a reused LSQ returns the
// same bits as a fresh one whatever sizes it ran before, and
// constant-size refits allocate nothing once the scratch has grown.
func TestLSQBitIdenticalAndAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	mk := func(n int) ([]complex128, []complex128) { return randVec(r, n), randVec(r, n) }
	var s LSQ
	// Vary system sizes so the reuse path (grow, shrink, regrow) runs.
	for iter := 0; iter < 12; iter++ {
		rows, w := 20+37*(iter%4), 1+iter%4
		x, y := mk(rows + 4*w)
		checkFIRAgainstOracle(t, &s, x, y, w, rows, w)
		reused, err1 := s.EstimateFIR(x, y, w, rows, w)
		var fresh LSQ
		want, err2 := fresh.EstimateFIR(x, y, w, rows, w)
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: errors %v, %v", iter, err1, err2)
		}
		for j := range want.Taps {
			if reused.Taps[j] != want.Taps[j] {
				t.Fatalf("iter %d tap %d: reused %v, fresh %v", iter, j, reused.Taps[j], want.Taps[j])
			}
		}
	}
	// Steady state: constant-size refits allocate nothing.
	x, y := mk(48)
	op := func() {
		if _, err := s.EstimateFIR(x, y, 3, 40, 3); err != nil {
			t.Fatal(err)
		}
	}
	op()
	if n := testing.AllocsPerRun(30, op); n != 0 {
		t.Errorf("LSQ steady state: %v allocs per run, want 0", n)
	}
}

// FuzzEstimateFIR compares LSQ.EstimateFIR with the stacked oracle on
// generated systems: one-sided widths 1–4, row counts below and above
// 4m, spans clipped past either buffer end, x and y of unequal lengths,
// a power-of-two scale on x, and up to 2m special samples (zero,
// rescaled, NaN or Inf) placed by the fuzzer. The error outcome must
// match, taps from at least 4m rows must agree to firTol, and no
// non-finite tap may come back without an error.
func FuzzEstimateFIR(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(440), int16(0), int16(0), int8(0), int8(0), []byte{})
	f.Add(int64(2), uint8(0), uint16(9), int16(-5), int16(-20), int8(3), int8(-20), []byte{})
	f.Add(int64(2), uint8(0), uint16(9), int16(-5), int16(30), int8(3), int8(-20), []byte{})
	f.Add(int64(3), uint8(3), uint16(30), int16(4), int16(-40), int8(-3), int8(20), []byte{10, 0, 200, 5})
	f.Add(int64(4), uint8(1), uint16(120), int16(0), int16(0), int8(0), int8(0), []byte{60, 2, 61, 3})
	f.Add(int64(5), uint8(2), uint16(200), int16(0), int16(0), int8(0), int8(0), []byte{100, 7, 50, 8})
	f.Add(int64(6), uint8(0), uint16(64), int16(0), int16(0), int8(0), int8(0), []byte{0, 4, 255, 1, 128, 6})
	// An Inf target on a row of x that is all zeros.
	f.Add(int64(-52), uint8(72), uint16(71), int16(-14), int16(30), int8(-79), int8(54), []byte("022272A0"))
	f.Fuzz(func(t *testing.T, seed int64, wb uint8, nb uint16, fromOff, toOff int16, dy, scaleExp int8, special []byte) {
		w := 1 + int(wb%4)
		m := 2*w + 1
		r := rand.New(rand.NewSource(seed))
		nx := 1 + int(nb%600)
		ny := nx + int(dy)%16
		if ny < 1 {
			ny = 1
		}
		x := randVec(r, nx)
		truth := FIR{Taps: randVec(r, m), Center: w}
		y := truth.Apply(nil, x)
		if len(y) > ny {
			y = y[:ny]
		}
		for len(y) < ny {
			y = append(y, 0)
		}
		for i := range y {
			y[i] += complex(0.05*r.NormFloat64(), 0.05*r.NormFloat64())
		}
		sc := math.Ldexp(1, int(scaleExp)%40)
		for i := range x {
			x[i] *= complex(sc, 0)
		}
		for i := 0; i+1 < len(special) && i < 4*m; i += 2 {
			kind := special[i+1] % 10
			buf := x
			if kind >= 5 {
				buf, kind = y, kind-5
			}
			at := int(special[i]) * len(buf) / 256
			switch kind {
			case 0:
				buf[at] = 0
			case 1:
				buf[at] *= complex(math.Ldexp(1, int(special[i+1]/10)%9-4), 0)
			case 2:
				buf[at] = complex(math.NaN(), imag(buf[at]))
			case 3:
				buf[at] = complex(real(buf[at]), math.Inf(1))
			case 4:
				buf[at] = complex(math.Inf(-1), math.NaN())
			}
		}
		from := int(fromOff)%64 - 16
		to := nx - int(toOff)%64 + 16
		var s LSQ
		checkFIRAgainstOracle(t, &s, x, y, from, to, w)
	})
}
