//go:build amd64 && !purego

package kern

// haveMulToneAsm gates the SSE2 tone-multiply kernel (see
// tone_amd64.s).
const haveMulToneAsm = true

// mulTonePairsAsm multiplies npairs sample pairs of buf by the two
// phasor chains of mulToneGo and advances them. st holds the chains as
// (aR, bR, aI, bI) followed by c2 and s2; the advanced chains are
// written back. Every lane performs mulToneGo's IEEE operations in the
// same order, without FMA, so the block is bit-identical to the Go
// loop.
//
//go:noescape
func mulTonePairsAsm(buf *complex128, npairs int, st *[6]float64)
