package dsp

import (
	"math"
	"math/cmplx"
)

// LSQ is reusable working storage for the sliding-window least-squares
// fits: the re-encoding ISI filter (§4.2.4d) and the decoder's
// symbol-spaced equalizer. Both are EstimateFIR problems whose rows are
// windows of one waveform, so the normal equations come from m
// autocorrelation lags plus O(m²) edge corrections instead of a row-by-row
// accumulation, and a Hermitian Cholesky factorization solves them. An LSQ
// owned by the fitting object (phy.Modeler, phy.SymbolDecoder) makes
// those fits allocation-free in steady state.
//
// Returned taps are the scratch itself: valid until the next call on the
// same LSQ, to be copied by callers that retain them.
//
// An LSQ must not be shared by concurrent goroutines.
type LSQ struct {
	gram []complex128 // m×m Gram matrix, row-major upper triangle; its Cholesky factor in place
	sol  []complex128 // right-hand side, solved in place into the taps
}

// EstimateFIR fits a two-sided FIR filter of one-sided width w that best
// maps the known input x onto the observed output y over the sample range
// [from, to): y[n] ≈ Σ_l g[l]·x[n−l]. It is the decision-directed channel
// estimator ZigZag uses to model a sender's ISI before re-encoding a chunk
// (§4.2.4d), fitted by complex least squares over already-decoded symbols.
// Only rows whose whole window x[n−w : n+w+1] lies inside x take part.
//
// The normal equations carry a ridge of 1e-9 × the largest diagonal
// entry. EstimateFIR returns ErrSingular for a span shorter than 2w+1, a
// zero or non-finite scale, a non-positive or NaN Cholesky pivot, and any
// non-finite tap, so a NaN or Inf sample that a row reads is an error.
// The returned FIR's taps are scratch: copy them before the next call on
// this LSQ.
func (s *LSQ) EstimateFIR(x, y []complex128, from, to, w int) (FIR, error) {
	if from < 0 {
		from = 0
	}
	if to > len(y) {
		to = len(y)
	}
	if to > len(x) {
		to = len(x)
	}
	m := 2*w + 1
	if to-from < m {
		return FIR{}, ErrSingular
	}
	// Rows [q0, q1); row n, column k reads x[n+w−k]. A span of at least
	// m samples inside x always holds one such row.
	q0, q1 := max(from, w), min(to, len(x)-w)
	s.gram = ensure(s.gram, m*m)
	s.sol = ensure(s.sol, m)
	g, b := s.gram, s.sol
	// G[j][k] = Σₙ conj(x[n+w−j])·x[n+w−k] and b[j] = Σₙ conj(x[n+w−j])·y[n].
	// Row 0 is m lags of x; each later row of the upper triangle is the
	// row above shifted one sample earlier, which enters sample in and
	// drops sample out: G[j][j+d] = G[j−1][j−1+d] + conj(x[in])·x[in−d] −
	// conj(x[out])·x[out−d].
	lead := x[q0+w : q1+w]
	for d := 0; d < m; d++ {
		g[d] = Dot(x[q0+w-d:q1+w-d], lead)
	}
	ys := y[q0:q1]
	for j := 0; j < m; j++ {
		b[j] = Dot(ys, x[q0+w-j:q1+w-j])
	}
	for j := 1; j < m; j++ {
		in, out := q0+w-j, q1+w-j
		cin, cout := cmplx.Conj(x[in]), cmplx.Conj(x[out])
		for k := j; k < m; k++ {
			d := k - j
			g[j*m+k] = g[(j-1)*m+k-1] + cin*x[in-d] - cout*x[out-d]
		}
	}
	var scale float64
	for j := 0; j < m; j++ {
		if d := real(g[j*m+j]); d > scale {
			scale = d
		}
	}
	if scale == 0 || math.IsInf(scale, 1) {
		return FIR{}, ErrSingular
	}
	ridge := complex(scale*1e-9, 0)
	for j := 0; j < m; j++ {
		g[j*m+j] += ridge
	}
	if !choleskySolve(g, b, m) {
		return FIR{}, ErrSingular
	}
	for _, t := range b {
		if cmplx.IsNaN(t) || cmplx.IsInf(t) {
			return FIR{}, ErrSingular
		}
	}
	return FIR{Taps: b, Center: w}, nil
}

// choleskySolve solves G·x = b in place for the m×m Hermitian positive
// definite G whose upper triangle is stored row-major in g: it factors
// G = Rᴴ·R into g's upper triangle, then overwrites b with x by forward
// and back substitution. It reports false on a non-positive or NaN pivot.
func choleskySolve(g, b []complex128, m int) bool {
	for j := 0; j < m; j++ {
		p := real(g[j*m+j])
		for i := 0; i < j; i++ {
			r := g[i*m+j]
			p -= real(r)*real(r) + imag(r)*imag(r)
		}
		if !(p > 0) {
			return false
		}
		d := math.Sqrt(p)
		g[j*m+j] = complex(d, 0)
		inv := 1 / d
		for k := j + 1; k < m; k++ {
			v := g[j*m+k]
			for i := 0; i < j; i++ {
				v -= cmplx.Conj(g[i*m+j]) * g[i*m+k]
			}
			g[j*m+k] = complex(real(v)*inv, imag(v)*inv)
		}
	}
	// Rᴴ·z = b.
	for j := 0; j < m; j++ {
		v := b[j]
		for i := 0; i < j; i++ {
			v -= cmplx.Conj(g[i*m+j]) * b[i]
		}
		inv := 1 / real(g[j*m+j])
		b[j] = complex(real(v)*inv, imag(v)*inv)
	}
	// R·x = z.
	for j := m - 1; j >= 0; j-- {
		v := b[j]
		for k := j + 1; k < m; k++ {
			v -= g[j*m+k] * b[k]
		}
		inv := 1 / real(g[j*m+j])
		b[j] = complex(real(v)*inv, imag(v)*inv)
	}
	return true
}
