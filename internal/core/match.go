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
	permute(perm, 0, func(p []int) bool {
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
		return false
	})
	return best, best.Score >= matchThreshold
}

// permute enumerates the permutations of p[k:] in place, in a fixed
// swap order, calling fn on each; fn returning true stops the
// enumeration and leaves p as fn saw it.
func permute[E any](p []E, k int, fn func([]E) bool) bool {
	if k == len(p) {
		return fn(p)
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		if permute(p, k+1, fn) {
			return true
		}
		p[k], p[i] = p[i], p[k]
	}
	return false
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
	return s.locatePacket(cfg, stored, storedStart, fresh, max)
}

// locateScratch carries the wide-window matcher's reusable working
// storage: the transforms and window energy of the buffer being
// searched, which every stored-collision lookup of one loaded reception
// shares (fft.Blocks decides the sharing: a lookup in any other buffer,
// as the k-way assembly makes them, serves that buffer for itself and
// ends it), the one-shot window reference, and the profile, score and
// result vectors.
type locateScratch struct {
	fresh  fft.Blocks    // transforms and window energy of the buffer searched
	ref    fft.Reference // window of a one-shot lookup
	prof   []complex128
	scores []float64
	out    []LocateResult
}

// locatePacket locates the packet starting at storedStart in stored
// inside fresh, with the window reference built for this lookup alone.
func (s *locateScratch) locatePacket(cfg Config, stored []complex128, storedStart float64, fresh []complex128, max int) []LocateResult {
	ref, skip := locateRef(cfg, stored, storedStart)
	s.ref.Set(ref)
	return s.locate(cfg, &s.ref, skip, fresh, max)
}

// locate slides the window win, which starts skip samples past its
// packet's start, across fresh and returns up to max packet starts
// (none for an unusable or silent window, or for a reception shorter
// than the window). The returned slice is the scratch's, valid until
// the next lookup.
func (s *locateScratch) locate(cfg Config, win *fft.Reference, skip int, fresh []complex128, max int) []LocateResult {
	w := len(win.Samples())
	if w == 0 || len(fresh) < w {
		return nil // no window, or no position to slide it to
	}
	s.prof = s.fresh.Correlate(s.prof, fresh, win, 0)
	return s.pick(cfg, s.prof, s.fresh.Energy(fresh, w), win.Samples(), skip, max)
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

// pick normalizes prof, the correlation of ref against a buffer whose
// window energies are energy, by the local window energy and returns up
// to max best packet starts (none for a silent ref). Each position is
// scored once; candidates are then picked greedily, best first, spaced
// at least a preamble apart (max is tiny, so re-scanning the scores per
// pick beats sorting a profile-sized candidate list).
func (s *locateScratch) pick(cfg Config, prof []complex128, energy []float64, ref []complex128, skip, max int) []LocateResult {
	refE := dsp.Energy(ref)
	if refE == 0 {
		return nil
	}
	if cap(s.scores) < len(prof) {
		s.scores = make([]float64, len(prof))
	}
	scores := s.scores[:len(prof)]
	energy = energy[:len(prof)]
	for i, v := range prof {
		scores[i] = (real(v)*real(v) + imag(v)*imag(v)) / (refE * energy[i])
	}
	minSp := cfg.PHY.PreambleBits * cfg.PHY.SamplesPerSymbol
	out := s.out[:0]
	for len(out) < max {
		best, bi := 0.0, -1
		for i, score := range scores {
			if energy[i] <= 0 || score <= best {
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
	s.out = out
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
