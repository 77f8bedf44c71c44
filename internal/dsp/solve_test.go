package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The stacked real least-squares solver below is the test oracle for
// LSQ.EstimateFIR. It stacks each complex row into two real rows, forms
// the normal equations row by row with the same 1e-9 ridge, and solves
// them by Gaussian elimination with partial pivoting. Each call
// allocates its matrices.

var (
	errDimensionMismatch = errors.New("dsp: solveLeastSquares dimension mismatch")
	errRaggedMatrix      = errors.New("dsp: solveLeastSquares ragged matrix")
)

// solveLinear solves the square system M·x = v by Gaussian elimination
// with partial pivoting. M is modified in place.
func solveLinear(m [][]float64, v []float64) ([]float64, error) {
	n := len(m)
	if n == 0 || len(v) != n {
		return nil, ErrSingular
	}
	x := append([]float64(nil), v...)
	for col := 0; col < n; col++ {
		p, best := col, math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if ab := math.Abs(m[r][col]); ab > best {
				p, best = r, ab
			}
		}
		if best == 0 || best != best { // 0 or NaN
			return nil, ErrSingular
		}
		m[col], m[p] = m[p], m[col]
		x[col], x[p] = x[p], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			m[r][col] = 0
			for c := col + 1; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for c := col + 1; c < n; c++ {
			sum -= m[col][c] * x[c]
		}
		x[col] = sum / m[col][col]
	}
	return x, nil
}

// solveLeastSquares solves min ‖A·x − b‖² for a dense real A given as
// rows, through the ridge-stabilized normal equations AᵀA·x = Aᵀb.
func solveLeastSquares(a [][]float64, b []float64) ([]float64, error) {
	if len(a) == 0 {
		return nil, ErrSingular
	}
	if len(a) != len(b) {
		return nil, errDimensionMismatch
	}
	n := len(a[0])
	if n == 0 {
		return nil, ErrSingular
	}
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	atb := make([]float64, n)
	var scale float64
	for r, row := range a {
		if len(row) != n {
			return nil, errRaggedMatrix
		}
		for i := 0; i < n; i++ {
			if row[i] == 0 {
				continue
			}
			for j := i; j < n; j++ {
				ata[i][j] += row[i] * row[j]
			}
			atb[i] += row[i] * b[r]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
		if ata[i][i] > scale {
			scale = ata[i][i]
		}
	}
	if scale == 0 {
		return nil, ErrSingular
	}
	ridge := scale * 1e-9
	for i := 0; i < n; i++ {
		ata[i][i] += ridge
	}
	return solveLinear(ata, atb)
}

// solveComplexLeastSquares solves min ‖A·x − b‖² for complex A, b by
// stacking real and imaginary parts into a real system. Short rows read
// as zero-padded.
func solveComplexLeastSquares(a [][]complex128, b []complex128) ([]complex128, error) {
	if len(a) == 0 || len(a) != len(b) {
		return nil, ErrSingular
	}
	n := len(a[0])
	rows := make([][]float64, 2*len(a))
	rhs := make([]float64, 2*len(a))
	for r, row := range a {
		rowRe, rowIm := make([]float64, 2*n), make([]float64, 2*n)
		for j, c := range row {
			rowRe[2*j], rowRe[2*j+1] = real(c), -imag(c)
			rowIm[2*j], rowIm[2*j+1] = imag(c), real(c)
		}
		rows[2*r], rows[2*r+1] = rowRe, rowIm
		rhs[2*r], rhs[2*r+1] = real(b[r]), imag(b[r])
	}
	sol, err := solveLeastSquares(rows, rhs)
	if err != nil {
		return nil, err
	}
	taps := make([]complex128, n)
	for j := range taps {
		taps[j] = complex(sol[2*j], sol[2*j+1])
	}
	return taps, nil
}

// estimateFIRStacked is LSQ.EstimateFIR on the stacked oracle: the same
// span clipping and row selection, one explicit row per sample. It also
// returns the number of rows the fit used. A NaN or Inf sample in any
// row or its target is ErrSingular, the contract EstimateFIR states; the
// stacked solver alone did not always notice one, since its
// accumulation skips zero coefficients (a row of zeros never met the Inf
// target beside it) and NaN targets gave NaN taps without an error.
func estimateFIRStacked(x, y []complex128, from, to, w int) (FIR, int, error) {
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
		return FIR{}, 0, ErrSingular
	}
	var rows [][]complex128
	var rhs []complex128
	finite := true
	for n := from; n < to; n++ {
		if n-w < 0 || n+w >= len(x) {
			continue
		}
		row := make([]complex128, m)
		for l := -w; l <= w; l++ {
			row[l+w] = x[n-l]
		}
		rows = append(rows, row)
		rhs = append(rhs, y[n])
		finite = finite && finiteTaps(row) && finiteTaps(y[n:n+1])
	}
	if len(rows) > 0 && !finite {
		return FIR{}, len(rows), ErrSingular
	}
	taps, err := solveComplexLeastSquares(rows, rhs)
	if err != nil {
		return FIR{}, len(rows), err
	}
	return FIR{Taps: taps, Center: w}, len(rows), nil
}

func TestSolveLinearKnownSystem(t *testing.T) {
	m := [][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	}
	// x = (1, 2, 3) ⇒ v = (4, 10, 8)
	v := []float64{4, 10, 8}
	x, err := solveLinear(m, v)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	m := [][]float64{{1, 1}, {2, 2}}
	if _, err := solveLinear(m, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	m := [][]float64{{0, 1}, {1, 0}}
	x, err := solveLinear(m, []float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-5) > 1e-12 {
		t.Fatalf("x = %v, want [7 5]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	// Fit y = 3x₀ − 2x₁ with noise; 50 equations, 2 unknowns.
	var a [][]float64
	var b []float64
	for i := 0; i < 50; i++ {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		a = append(a, []float64{x0, x1})
		b = append(b, 3*x0-2*x1+0.01*r.NormFloat64())
	}
	x, err := solveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 0.02 || math.Abs(x[1]+2) > 0.02 {
		t.Fatalf("fit = %v, want ≈ [3 -2]", x)
	}
}

func TestLeastSquaresRejectsBadInput(t *testing.T) {
	if _, err := solveLeastSquares(nil, nil); err == nil {
		t.Fatal("nil input should error")
	}
	if _, err := solveLeastSquares([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if _, err := solveLeastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged matrix should error")
	}
	if _, err := solveLeastSquares([][]float64{{0, 0}}, []float64{0}); err == nil {
		t.Fatal("all-zero matrix should error")
	}
}

func TestComplexLeastSquares(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	truth := []complex128{2 - 1i, 0.5i}
	var a [][]complex128
	var b []complex128
	for i := 0; i < 40; i++ {
		row := []complex128{
			complex(r.NormFloat64(), r.NormFloat64()),
			complex(r.NormFloat64(), r.NormFloat64()),
		}
		a = append(a, row)
		b = append(b, row[0]*truth[0]+row[1]*truth[1])
	}
	x, err := solveComplexLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if absC(x[i]-truth[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], truth[i])
		}
	}
}

func TestGainPhase(t *testing.T) {
	g, p := GainPhase(complex(0, 2))
	if math.Abs(g-2) > 1e-12 || math.Abs(p-math.Pi/2) > 1e-12 {
		t.Fatalf("GainPhase = (%v, %v)", g, p)
	}
}
