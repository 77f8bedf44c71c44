//go:build !amd64 || purego

package kern

// haveAccumAsm is false off amd64 (or under the purego tag): Accum runs
// entirely on the portable Go recurrence kernels.
const haveAccumAsm = false

// accumAsmBlock is never called when haveAccumAsm is false; the stub
// keeps the dispatch site compiling on every platform.
func accumAsmBlock(re, im []float64, amp, phase, step []float64, n0 float64) {
	panic("kern: accumAsmBlock without asm support")
}

// haveMulTapsAsm is false off amd64 (or under the purego tag): MulTaps
// runs entirely on the portable scalar loop.
const haveMulTapsAsm = false

// mulTaps3Asm is never called when haveMulTapsAsm is false.
func mulTaps3Asm(buf *complex128, re, im *float64, n, npairs int) {
	panic("kern: mulTaps3Asm without asm support")
}

// accumAsmBlockSet is never called when haveAccumAsm is false; AccumSet
// falls back to Zero followed by the portable Accum.
func accumAsmBlockSet(re, im []float64, amp, phase, step []float64, n0 float64) {
	panic("kern: accumAsmBlockSet without asm support")
}

// haveClipQuantAsm is false off amd64 (or under the purego tag):
// ClipQuant runs entirely on the portable scalar loop.
const haveClipQuantAsm = false

// clipQuantPow2Asm is never called when haveClipQuantAsm is false.
func clipQuantPow2Asm(buf *complex128, n int, p *[8]float64) {
	panic("kern: clipQuantPow2Asm without asm support")
}

// haveFIRAsm is false off amd64 (or under the purego tag): the FIR
// kernels run entirely on the portable scalar loops.
const haveFIRAsm = false

// fir8Asm is never called when haveFIRAsm is false.
func fir8Asm(dst, x *complex128, n int, coef *float64) {
	panic("kern: fir8Asm without asm support")
}

// firCplxAsm is never called when haveFIRAsm is false.
func firCplxAsm(dst, x *complex128, n int, pairs *float64, l int) {
	panic("kern: firCplxAsm without asm support")
}

// haveMulToneAsm is false off amd64 (or under the purego tag): MulTone
// runs entirely on the Go loop.
const haveMulToneAsm = false

// mulTonePairsAsm is never called when haveMulToneAsm is false.
func mulTonePairsAsm(buf *complex128, npairs int, st *[6]float64) {
	panic("kern: mulTonePairsAsm without asm support")
}
