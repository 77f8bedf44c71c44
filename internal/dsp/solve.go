package dsp

import (
	"errors"
	"math/cmplx"
)

// ErrSingular is returned when a linear system has no usable solution.
var ErrSingular = errors.New("dsp: singular system")

// GainPhase decomposes a complex channel coefficient into magnitude and
// phase, mirroring the paper's H = h·e^{jγ} notation.
func GainPhase(h complex128) (gain, phase float64) {
	return cmplx.Abs(h), cmplx.Phase(h)
}
