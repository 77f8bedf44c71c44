package core

import (
	"math"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/fft"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

// MatchWindow is the number of samples correlated when checking whether
// two collisions contain the same packet (§4.2.2). Longer windows
// separate same/different packets more sharply; one-to-two preamble
// spans beyond the packet start is ample because payload data dominates.
const MatchWindow = 512

// matchScore correlates reception a aligned at sample position startA
// against reception b aligned at startB. When the packets starting at
// those positions are the same, the windows are highly dependent (they
// differ only in the other colliding packet, noise, carrier phase, and
// the retry flag) and the normalized correlation is large; different
// packets correlate near zero. The window skips the preamble and header
// chips — every packet shares the preamble and most header fields, which
// would otherwise correlate *different* packets too.
func matchScore(cfg Config, a []complex128, startA float64, b []complex128, startB float64) float64 {
	skip := (cfg.PHY.PreambleBits + modem.SymbolCount(modem.BPSK, frame.HeaderBits)) * cfg.PHY.SamplesPerSymbol
	ia, ib := int(startA)+skip, int(startB)+skip
	if ia < 0 || ib < 0 || ia >= len(a) || ib >= len(b) {
		return 0
	}
	n := MatchWindow
	if rest := len(a) - ia; rest < n {
		n = rest
	}
	if rest := len(b) - ib; rest < n {
		n = rest
	}
	if n < 64 {
		return 0
	}
	return dsp.NormalizedCorrelation(a[ia:ia+n], b[ib:ib+n])
}

// MatchPairing describes how the occurrences of two receptions pair up:
// Pairs[i] = j means occurrence i of the first reception carries the
// same packet as occurrence j of the second.
type MatchPairing struct {
	Pairs []int
	// Score is the minimum pairwise correlation across the pairing.
	Score float64
}

// MatchCollisions decides whether two receptions contain the same set of
// packets, trying every assignment of occurrences (collisions involve
// two or three packets, so brute force is fine — and the paper's Fig
// 4-1b flipped-order pattern requires trying the swap). It returns the
// best pairing and whether its score clears the threshold.
func MatchCollisions(cfg Config, a, b *Reception) (MatchPairing, bool) {
	na, nb := len(a.Packets), len(b.Packets)
	if na == 0 || na != nb {
		return MatchPairing{}, false
	}
	perm := make([]int, na)
	for i := range perm {
		perm[i] = i
	}
	best := MatchPairing{Score: -1}
	permute(perm, 0, func(p []int) {
		score := 2.0
		for i, j := range p {
			s := matchScore(cfg, a.Samples, a.Packets[i].Sync.Start, b.Samples, b.Packets[j].Sync.Start)
			if s < score {
				score = s
			}
		}
		if score > best.Score {
			best = MatchPairing{Pairs: append([]int(nil), p...), Score: score}
		}
	})
	return best, best.Score >= cfg.matchThreshold()
}

// permute enumerates permutations of p in place, calling fn for each.
func permute(p []int, k int, fn func([]int)) {
	if k == len(p) {
		fn(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, fn)
		p[k], p[i] = p[i], p[k]
	}
}

// LocateResult is one candidate alignment of a stored packet inside a
// new reception.
type LocateResult struct {
	Pos   int     // sample position where the packet starts in the new reception
	Score float64 // normalized correlation
}

// LocatePacket slides a wide data window of a stored collision (starting
// at the stored packet's data region) across a new reception and returns
// the best alignments. This is the §4.2.2 "correlation trick" run at
// full packet-data width instead of preamble width: with a 512-sample
// window it separates same/different packets ~9 dB more sharply than
// preamble correlation, which lets the receiver recover a retransmitted
// packet's position even when its preamble spike was buried.
//
// The returned positions are starts of the packet (the window skip is
// already removed). Up to max candidates are returned, best first, at
// least a preamble apart.
func LocatePacket(cfg Config, stored []complex128, storedStart float64, fresh []complex128, max int) []LocateResult {
	var s locateScratch
	return locatePacket(cfg, stored, storedStart, fresh, max, &s)
}

// locateScratch carries the wide-window matcher's reusable working
// storage: the correlation engine's transform buffers plus the profile
// and rolling-energy vectors, which are as long as the fresh reception
// and would otherwise dominate per-lookup allocation.
type locateScratch struct {
	corr   fft.Scratch
	prof   []complex128
	energy []float64
}

// locatePacket is LocatePacket with the working storage threaded in;
// the online Receiver passes its own locateScratch so repeated store
// lookups allocate nothing in steady state.
func locatePacket(cfg Config, stored []complex128, storedStart float64, fresh []complex128, max int, s *locateScratch) []LocateResult {
	ref, skip := locateRef(cfg, stored, storedStart)
	if ref == nil {
		return nil
	}
	s.prof = fft.Correlate(s.prof, fresh, ref, 0, &s.corr)
	return s.pick(cfg, s.prof, fresh, ref, skip, max)
}

// locateRef returns the stored packet's data window and the sample skip
// from the packet start to it, or nil when no usable window exists.
func locateRef(cfg Config, stored []complex128, storedStart float64) (ref []complex128, skip int) {
	skip = (cfg.PHY.PreambleBits + modem.SymbolCount(modem.BPSK, frame.HeaderBits)) * cfg.PHY.SamplesPerSymbol
	is := int(storedStart) + skip
	if is < 0 || is >= len(stored) {
		return nil, 0
	}
	w := MatchWindow
	if rest := len(stored) - is; rest < w {
		w = rest
	}
	if w < 128 {
		return nil, 0
	}
	return stored[is : is+w], skip
}

// pick normalizes prof, the correlation of ref against fresh, by the
// local window energy and returns up to max best packet starts (none
// for a silent ref).
func (s *locateScratch) pick(cfg Config, prof, fresh, ref []complex128, skip, max int) []LocateResult {
	w := len(ref)
	refE := dsp.Energy(ref)
	if refE == 0 {
		return nil
	}
	// Normalize per position by the local window energy.
	var run float64
	if cap(s.energy) < len(prof) {
		s.energy = make([]float64, len(prof))
	}
	energy := s.energy[:len(prof)]
	for i := 0; i < len(fresh); i++ {
		v := fresh[i]
		run += real(v)*real(v) + imag(v)*imag(v)
		if i >= w {
			u := fresh[i-w]
			run -= real(u)*real(u) + imag(u)*imag(u)
		}
		if i >= w-1 {
			energy[i-w+1] = run
		}
	}
	// Pick peaks greedily, spaced at least a preamble apart, scanning
	// the normalized scores in place (max is tiny, so re-deriving the
	// score per pass beats materializing a profile-sized candidate
	// list).
	minSp := cfg.PHY.PreambleBits * cfg.PHY.SamplesPerSymbol
	var out []LocateResult
	for len(out) < max {
		best, bi := 0.0, -1
		for i := range prof {
			if energy[i] <= 0 {
				continue
			}
			m := real(prof[i])*real(prof[i]) + imag(prof[i])*imag(prof[i])
			score := m / (refE * energy[i])
			if score <= best {
				continue
			}
			tooClose := false
			for _, o := range out {
				if abs(i-skip-o.Pos) < minSp {
					tooClose = true
					break
				}
			}
			if !tooClose {
				best, bi = score, i
			}
		}
		if bi < 0 {
			break
		}
		out = append(out, LocateResult{Pos: bi - skip, Score: math.Sqrt(best)})
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
