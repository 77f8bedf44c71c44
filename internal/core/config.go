// Package core implements ZigZag decoding — the paper's contribution.
//
// Given one or more receptions ("collisions") known to contain the same
// set of packets at different offsets, the decoder runs the paper's
// greedy chunk algorithm (§4.5, of which the two-collision case of §4.2
// is the special case):
//
//  1. decode every chunk that is currently interference-free (or whose
//     interference is far enough below the packet's power — the capture
//     rule that folds the patterns of Fig 4-1d/e/f into the same
//     machinery);
//  2. re-encode decoded chunks through the per-reception channel model
//     and subtract them wherever they appear;
//  3. repeat until no chunk makes progress.
//
// The decoder then runs the same schedule backward from the packet tails
// and combines the two estimates of every symbol with MRC (§4.3b), which
// is what pushes the bit error rate below the collision-free baseline.
//
// The package also provides the online receiver workflow of §5.1d:
// standard decode first, then collision detection by preamble
// correlation (§4.2.1), matching against stored collisions (§4.2.2), and
// joint decoding.
package core

import (
	"zigzag/internal/dsp"
	"zigzag/internal/phy"
)

// Config parameterizes the ZigZag decoder.
type Config struct {
	// PHY is the physical-layer configuration shared with the black-box
	// decoder.
	PHY phy.Config

	// MaxChunkSymbols caps how many symbols one decode step consumes, so
	// the re-encoding phase tracker (§4.2.4b) gets a measurement at
	// least this often. Zero means DefaultMaxChunkSymbols.
	MaxChunkSymbols int

	// HoldbackSymbols is how many trailing symbols of each chunk are
	// left uncommitted and re-decoded as the head of the next chunk.
	// The equalizer's skirt at a chunk's trailing edge reads samples
	// that still contain interference; the holdback keeps those
	// provisional decisions out of the subtraction path. Zero means the
	// equalizer's one-sided tap count.
	HoldbackSymbols int

	// CaptureSINRdB is the signal-to-interference threshold above which
	// a packet is decoded straight through residual interference — the
	// capture-effect rule (§4.1, Fig 4-1d/e). Zero means
	// DefaultCaptureSINRdB.
	CaptureSINRdB float64

	// DisableBackward turns off the backward pass and MRC combining,
	// leaving forward-only decoding (the Fig 5-3 ablation).
	DisableBackward bool

	// MatchThreshold is the minimum normalized correlation for two
	// collisions to be considered matching (§4.2.2). Zero means
	// DefaultMatchThreshold.
	MatchThreshold float64

	// MinTrackChips is the smallest subtraction increment on which the
	// phase tracker takes a measurement; shorter increments subtract
	// without tracking. Zero means DefaultMinTrackChips.
	MinTrackChips int

	// DetectBeta is the preamble-correlation acceptance factor used by
	// the online receiver's collision detector (§5.3a). Zero means
	// DefaultDetectBeta. The paper's prototype settles on 0.65; our
	// 2-samples-per-symbol rectangular chips produce a slightly fatter
	// data-correlation tail, so the balance point recalibrates to 0.8
	// (the Table 5.1 benchmark sweeps this trade-off).
	DetectBeta float64
}

// Defaults for Config fields.
const (
	DefaultMaxChunkSymbols = 256
	DefaultCaptureSINRdB   = 10.0
	DefaultMatchThreshold  = 0.2
	DefaultMinTrackChips   = 64
	DefaultDetectBeta      = 0.8
)

// DefaultConfig returns the configuration used by the evaluation.
func DefaultConfig() Config {
	return Config{PHY: phy.Default()}
}

func (c *Config) maxChunk() int {
	if c.MaxChunkSymbols <= 0 {
		return DefaultMaxChunkSymbols
	}
	return c.MaxChunkSymbols
}

func (c *Config) holdback() int {
	if c.HoldbackSymbols <= 0 {
		return c.PHY.EqTaps
	}
	return c.HoldbackSymbols
}

func (c *Config) captureRatio() float64 {
	thr := c.CaptureSINRdB
	if thr == 0 {
		thr = DefaultCaptureSINRdB
	}
	return dsp.FromDB(thr)
}

func (c *Config) matchThreshold() float64 {
	if c.MatchThreshold == 0 {
		return DefaultMatchThreshold
	}
	return c.MatchThreshold
}

func (c *Config) minTrackChips() int {
	if c.MinTrackChips <= 0 {
		return DefaultMinTrackChips
	}
	return c.MinTrackChips
}

func (c *Config) detectBeta() float64 {
	if c.DetectBeta == 0 {
		return DefaultDetectBeta
	}
	return c.DetectBeta
}
