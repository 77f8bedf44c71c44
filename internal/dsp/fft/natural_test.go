package fft

import "math"

// naturalPlan is the natural-order transform pair the tests check the
// scrambled-order correlation transforms against: a bit-reversal
// permutation followed by decimation-in-time radix-2 butterflies, with
// per-stage twiddles in natural butterfly order — stageF[s][j] =
// e^{−2πij/size} for size = 8<<s, and stageI their conjugates.
type naturalPlan struct {
	n      int
	stageF [][]complex128 // forward twiddles per generic radix-2 stage
	stageI [][]complex128 // inverse (conjugated) twiddles per generic radix-2 stage
	perm   []int32        // bit-reversal permutation
}

func newNaturalPlan(n int) *naturalPlan {
	p := &naturalPlan{n: n}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		f := make([]complex128, half)
		inv := make([]complex128, half)
		for j := 0; j < half; j++ {
			s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(size))
			f[j] = complex(c, s)
			inv[j] = complex(c, -s)
		}
		p.stageF = append(p.stageF, f)
		p.stageI = append(p.stageI, inv)
	}
	p.perm = make([]int32, n)
	j := 0
	for i := 0; i < n; i++ {
		p.perm[i] = int32(j)
		bit := n >> 1
		for ; bit > 0 && j&bit != 0; bit >>= 1 {
			j &^= bit
		}
		j |= bit
	}
	return p
}

// Forward transforms x in place to its DFT in natural order:
// X[j] = Σ_k x[k]·e^{−2πijk/n}. len(x) must equal the plan size.
func (p *naturalPlan) Forward(x []complex128) {
	p.check(x)
	p.permute(x)
	dit(x, p.n, p.stageF, -1)
}

// Inverse transforms a natural-order spectrum in place back to samples,
// including the 1/n scaling.
func (p *naturalPlan) Inverse(x []complex128) {
	p.check(x)
	p.permute(x)
	dit(x, p.n, p.stageI, 1)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

func (p *naturalPlan) check(x []complex128) {
	if len(x) != p.n {
		panic(errLength)
	}
}

func (p *naturalPlan) permute(x []complex128) {
	for i, pj := range p.perm {
		if j := int(pj); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// dit runs decimation-in-time butterflies: bit-reversed input, natural
// output. The size-2 and size-4 stages have twiddles 1 and ±i and are
// peeled off without multiplies (sign is −1 forward, +1 inverse);
// stages holds contiguous per-stage twiddles for sizes 8, 16, ….
func dit(x []complex128, n int, stages [][]complex128, sign float64) {
	if n < 2 {
		return
	}
	for i := 0; i < n; i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
	if n < 4 {
		return
	}
	for i := 0; i < n; i += 4 {
		a, b := x[i], x[i+2]
		x[i], x[i+2] = a+b, a-b
		c, d := x[i+1], x[i+3]
		d = complex(-sign*imag(d), sign*real(d)) // d·(±i)
		x[i+1], x[i+3] = c+d, c-d
	}
	for si, ws := range stages {
		size := 8 << si
		half := size >> 1
		for start := 0; start < n; start += size {
			u := x[start : start+half : start+half]
			v := x[start+half : start+size]
			v = v[:len(u)]
			ws := ws[:len(u)]
			for j := range u {
				t := v[j] * ws[j]
				v[j] = u[j] - t
				u[j] += t
			}
		}
	}
}
