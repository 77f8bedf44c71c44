//go:build amd64 && !purego

package fft

// The correlation path's stage kernels run as SSE2 assembly (see
// stage_amd64.s): one complex128 per XMM register, and in each lane the
// same IEEE operations in the same order as the Go expression of
// fwdStage4Go, invStage4Go, fwd8Go and inv8MulGo, so every output is
// bit-identical to theirs. SSE2 is the amd64 baseline (GOAMD64=v1), so
// the kernels need no CPU-feature dispatch; the purego tag builds the
// Go kernels instead.

// fwdStage4 is fwdStage4Go in assembly.
//
//go:noescape
func fwdStage4(x []complex128, n, size int, tw []float64)

// invStage4 is invStage4Go in assembly.
//
//go:noescape
func invStage4(x []complex128, n, size int, tw []float64)

// fwd8 is fwd8Go in assembly.
//
//go:noescape
func fwd8(x []complex128)

// inv8Mul is inv8MulGo in assembly; like it, it reads every source of an
// 8-block before writing the block, so x may be src.
//
//go:noescape
func inv8Mul(x, src, spec []complex128)
