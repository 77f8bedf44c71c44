//go:build !amd64 || purego

package fft

// Without the assembly (other architectures, or the purego tag) the
// correlation path runs the Go stage kernels.

func fwdStage4(x []complex128, n, size int, tw []float64) { fwdStage4Go(x, n, size, tw) }

func invStage4(x []complex128, n, size int, tw []float64) { invStage4Go(x, n, size, tw) }

func fwd8(x []complex128) { fwd8Go(x) }

func inv8Mul(x, src, spec []complex128) { inv8MulGo(x, src, spec) }
