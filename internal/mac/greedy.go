package mac

import (
	"math/rand"

	"zigzag/internal/runner"
)

// This file implements the offset-domain simulation behind Fig 4-7: how
// often the linear-time greedy chunk algorithm of §4.5 can fully decode
// a general configuration of collisions, as a function of the number of
// colliding nodes. It works on abstract intervals (no PHY): a packet is
// an interval of unit-time, a collision is a set of start offsets, and a
// stretch of a packet is decodable in a collision when every other
// packet overlapping it has already been decoded there.

// span is a half-open interval [Lo, Hi) in slot units.
type span struct{ Lo, Hi int }

// spanSet is a normalized (sorted, disjoint) set of spans.
type spanSet []span

// add merges s into the set. The set is already sorted, so the new span
// bubbles into place by insertion (no reflection-based sort in this hot
// loop) before the canonical in-place merge; the resulting set is the
// interval union either way.
func (ss spanSet) add(s span) spanSet {
	if s.Hi <= s.Lo {
		return ss
	}
	out := append(ss, s)
	for i := len(out) - 1; i > 0 && out[i].Lo < out[i-1].Lo; i-- {
		out[i], out[i-1] = out[i-1], out[i]
	}
	merged := out[:1]
	for _, v := range out[1:] {
		last := &merged[len(merged)-1]
		if v.Lo <= last.Hi {
			if v.Hi > last.Hi {
				last.Hi = v.Hi
			}
			continue
		}
		merged = append(merged, v)
	}
	return merged
}

// covered reports whether [lo, hi) is fully inside the set.
func (ss spanSet) covered(lo, hi int) bool {
	for _, v := range ss {
		if v.Lo <= lo && hi <= v.Hi {
			return true
		}
	}
	return false
}

// total returns the summed length.
func (ss spanSet) total() int {
	n := 0
	for _, v := range ss {
		n += v.Hi - v.Lo
	}
	return n
}

// greedyScratch is the worker-local state of the Fig 4-7 simulation:
// the offset matrix and the span working sets, reused across every
// trial a worker runs. Before this arena the sweep spent the majority
// of its time in allocation and reflection-based sorting rather than in
// the algorithm: fig 4-7a went from 62.0 s to 7.6 s serial on the
// reference host when it landed.
type greedyScratch struct {
	offFlat []int
	offRows [][]int
	decoded []spanSet
	raw     []span
	clean   []span
}

// offsets returns the reusable n×n offset matrix.
func (sc *greedyScratch) offsets(n int) [][]int {
	if cap(sc.offFlat) < n*n {
		sc.offFlat = make([]int, n*n)
	}
	sc.offFlat = sc.offFlat[:n*n]
	if cap(sc.offRows) < n {
		sc.offRows = make([][]int, n)
	}
	sc.offRows = sc.offRows[:n]
	for i := range sc.offRows {
		sc.offRows[i] = sc.offFlat[i*n : (i+1)*n]
	}
	return sc.offRows
}

// GreedyDecodable runs the §4.5 greedy algorithm on a configuration of
// collisions. offsets[c][p] is packet p's start slot in collision c (a
// packet may appear in every collision, as with 802.11 retransmissions);
// length is the packet length in slots (all packets equal, as in the
// paper's simulation). It reports whether every packet becomes fully
// decoded.
//
// The algorithm alternates the paper's two steps until a fixed point:
// decode every stretch that is interference-free given what has been
// subtracted, then subtract the known stretches wherever they appear.
func GreedyDecodable(offsets [][]int, length int) bool {
	var sc greedyScratch
	return sc.decodable(offsets, length)
}

// decodable is GreedyDecodable on worker-local scratch.
func (sc *greedyScratch) decodable(offsets [][]int, length int) bool {
	if len(offsets) == 0 || length <= 0 {
		return false
	}
	n := len(offsets[0])
	if cap(sc.decoded) < n {
		sc.decoded = make([]spanSet, n)
	}
	sc.decoded = sc.decoded[:n]
	decoded := sc.decoded // in packet-local slot units
	for i := range decoded {
		decoded[i] = decoded[i][:0]
	}
	done := func() bool {
		for _, ss := range decoded {
			if !ss.covered(0, length) {
				return false
			}
		}
		return true
	}
	for {
		progress := false
		for _, coll := range offsets {
			if len(coll) != n {
				return false
			}
			for p := 0; p < n; p++ {
				// Decodable stretches of packet p in this collision:
				// positions where every other packet is absent or
				// already decoded.
				for _, s := range sc.cleanStretches(coll, decoded, p, length) {
					before := decoded[p].total()
					decoded[p] = decoded[p].add(s)
					if decoded[p].total() > before {
						progress = true
					}
				}
			}
		}
		if done() {
			return true
		}
		if !progress {
			return false
		}
	}
}

// cleanStretches returns the packet-local spans of packet p that are
// interference-free in a collision, treating other packets' decoded
// spans as subtracted. The returned slice is scratch, valid until the
// next call.
func (sc *greedyScratch) cleanStretches(coll []int, decoded []spanSet, p, length int) []span {
	start := coll[p]
	// Build the "dirty" set in absolute slots: each other packet's
	// not-yet-decoded portions. Collect first, then sort and merge once.
	raw := sc.raw[:0]
	for q := range coll {
		if q == p {
			continue
		}
		qs := coll[q]
		// Complement of decoded[q] within [0, length), shifted to
		// absolute slots.
		cur := 0
		for _, d := range decoded[q] {
			if d.Lo > cur {
				raw = append(raw, span{qs + cur, qs + d.Lo})
			}
			cur = d.Hi
		}
		if cur < length {
			raw = append(raw, span{qs + cur, qs + length})
		}
	}
	// Insertion sort by Lo: the sets are tiny (≤ 2·nodes spans) and
	// mostly ordered, and this keeps the hot loop free of
	// reflection-based sorting.
	for i := 1; i < len(raw); i++ {
		for j := i; j > 0 && raw[j].Lo < raw[j-1].Lo; j-- {
			raw[j], raw[j-1] = raw[j-1], raw[j]
		}
	}
	sc.raw = raw
	dirty := raw[:0]
	for _, v := range raw {
		if n := len(dirty); n > 0 && v.Lo <= dirty[n-1].Hi {
			if v.Hi > dirty[n-1].Hi {
				dirty[n-1].Hi = v.Hi
			}
			continue
		}
		dirty = append(dirty, v)
	}
	// Clean absolute spans of packet p = [start, start+length) minus dirty.
	out := sc.clean[:0]
	cur := start
	for _, d := range dirty {
		if d.Hi <= cur {
			continue
		}
		if d.Lo >= start+length {
			break
		}
		if d.Lo > cur {
			hi := d.Lo
			if hi > start+length {
				hi = start + length
			}
			out = append(out, span{cur - start, hi - start})
		}
		if d.Hi > cur {
			cur = d.Hi
		}
	}
	if cur < start+length {
		out = append(out, span{cur - start, length})
	}
	sc.clean = out
	return out
}

// BackoffMode selects how nodes draw their transmission slots in the
// Fig 4-7 simulation.
type BackoffMode int

const (
	// FixedCW: every node picks uniformly from a constant window
	// (Fig 4-7a).
	FixedCW BackoffMode = iota
	// ExponentialBackoff: the window starts at CWMin+1 and doubles per
	// collision up to CWMax+1 (Fig 4-7b).
	ExponentialBackoff
)

// GreedyFailureProbability estimates the probability that the greedy
// algorithm cannot decode a random collision configuration of n nodes
// (Fig 4-7). Each trial draws n successive collisions of the same n
// packets: in collision k every node independently picks a start slot
// from its window. length is the packet length in slots (1500 B at
// 500 kb/s spans far more slots than any window, so overlaps are total;
// the default used by the benchmarks is 600).
//
// Trials fan out across workers goroutines (0 = GOMAXPROCS); every
// trial draws from its own seed-derived stream, so the estimate is
// identical at any worker count.
func GreedyFailureProbability(n, cw, length, trials int, mode BackoffMode, seed int64, workers int) float64 {
	if trials <= 0 {
		trials = 10000
	}
	// Larger configurations cost ~n² per trial; keep the total budget
	// roughly constant across the Fig 4-7 sweep. The floor follows the
	// requested budget down (short-mode tests) but never exceeds the
	// historical 200.
	if n > 3 {
		floor := trials / 4
		if floor < 50 {
			floor = 50
		}
		if floor > 200 {
			floor = 200
		}
		trials = trials * 9 / (n * n)
		if trials < floor {
			trials = floor
		}
	}
	fails := runner.SumIntLocal(trials, runner.Options{Workers: workers, BaseSeed: seed},
		func() *greedyScratch { return &greedyScratch{} }, nil,
		func(sc *greedyScratch, _ int, rng *rand.Rand) int {
			offsets := sc.offsets(n)
			for c := 0; c < n; c++ {
				w := cw
				if mode == ExponentialBackoff {
					w = CWForAttempt(c) + 1
				}
				row := offsets[c]
				for p := 0; p < n; p++ {
					row[p] = rng.Intn(w)
				}
			}
			if !sc.decodable(offsets, length) {
				return 1
			}
			return 0
		})
	return float64(fails) / float64(trials)
}
