// Streaming, mergeable accumulators: ExactSum and QuantileSketch.
//
// Sample keeps every observation. The accumulators here fold each
// observation in as it arrives, in memory that does not grow with the
// count, and merge partial accumulators exactly. The serve engine's
// latency report and the observability registry's histograms are
// sketches. The contract both types keep:
//
//	Merge is EXACTLY associative and commutative, bit for bit.
//
// Sketch bucket counts are integers, whose addition is exact.
// Floating-point totals go through ExactSum, which maintains the exact
// real-valued sum as a non-overlapping float64 expansion
// (Shewchuk/Hettinger, the algorithm behind Python's math.fsum) and
// rounds only on read — so the rounded Sum depends only on the set of
// added values, never on the order or grouping of Adds and Merges.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// ExactSum accumulates float64 values with an exact running sum,
// represented as a non-overlapping expansion of partials. Adding and
// merging are exact (no rounding), so the order and grouping of
// operations cannot change the represented value; Sum rounds the exact
// value to the nearest float64 once, on read. The zero value is an
// empty sum.
//
// Non-finite inputs degrade gracefully: once a NaN or Inf is added the
// sum is the IEEE accumulation of the specials (order-insensitive for
// the cases that arise here) and stays that way.
type ExactSum struct {
	parts   []float64 // non-overlapping, increasing magnitude, nonzero
	special float64   // accumulated NaN/Inf inputs, 0 when none seen
	hasSpec bool
}

// Add folds one value into the exact sum.
func (s *ExactSum) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		s.special += x
		s.hasSpec = true
		return
	}
	// Grow the expansion: two-sum x against each partial, keeping the
	// exact residues. Invariants (non-overlapping, increasing magnitude)
	// are maintained exactly as in CPython's math.fsum.
	i := 0
	for _, y := range s.parts {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.parts[i] = lo
			i++
		}
		x = hi
	}
	if x != 0 {
		s.parts = append(s.parts[:i], x)
	} else {
		s.parts = s.parts[:i]
	}
}

// Merge folds another exact sum in. Exact: the partials of o are a
// finite-float decomposition of its exact value, and Add is exact.
func (s *ExactSum) Merge(o *ExactSum) {
	for _, p := range o.parts {
		s.Add(p)
	}
	if o.hasSpec {
		s.special += o.special
		s.hasSpec = true
	}
}

// Sum returns the exact accumulated value rounded once to float64
// (correctly rounded, including the round-half-even correction on exact
// halfway cases — CPython fsum's final pass).
func (s *ExactSum) Sum() float64 {
	if s.hasSpec {
		sum := s.special
		for _, p := range s.parts {
			sum += p
		}
		return sum
	}
	n := len(s.parts)
	if n == 0 {
		return 0
	}
	hi := s.parts[n-1]
	var lo float64
	i := n - 1
	for i--; i >= 0; i-- {
		x, y := hi, s.parts[i]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	// Round-half-even correction: if the residue is exactly half an ulp
	// and the next partial pushes it past half, adjust.
	if i > 0 && ((lo < 0 && s.parts[i-1] < 0) || (lo > 0 && s.parts[i-1] > 0)) {
		y := lo * 2
		x := hi + y
		if yr := x - hi; y == yr {
			hi = x
		}
	}
	return hi
}

// Clone returns an independent copy of the exact sum.
func (s *ExactSum) Clone() ExactSum {
	out := ExactSum{special: s.special, hasSpec: s.hasSpec}
	if len(s.parts) > 0 {
		out.parts = append([]float64(nil), s.parts...)
	}
	return out
}

// exactSumJSON is the wire form of an ExactSum.
type exactSumJSON struct {
	Parts   []float64 `json:"parts,omitempty"`
	Special float64   `json:"special,omitempty"`
	HasSpec bool      `json:"has_special,omitempty"`
}

// MarshalJSON serializes the exact expansion losslessly.
func (s ExactSum) MarshalJSON() ([]byte, error) {
	return json.Marshal(exactSumJSON{Parts: s.parts, Special: s.special, HasSpec: s.hasSpec})
}

// DefaultSketchAccuracy is the relative accuracy of the registry's
// histogram sketches: a reported quantile x̂ satisfies
// |x̂−x| ≤ accuracy·|x| for the true quantile x (DDSketch's guarantee).
const DefaultSketchAccuracy = 0.01

// QuantileSketch is a deterministic, exactly mergeable quantile sketch:
// log-spaced buckets with integer counts (DDSketch-style mapping), plus
// exact min/max/sum side channels. Because the bucket index of a value
// is a pure function of the value and merging adds integer counts,
// Merge is exactly associative and commutative — any shard split
// reproduces the unsharded sketch bit for bit. Quantile and CDF keep
// Sample's API shape; their answers are within the configured relative
// accuracy of the exact order statistics (min/max are exact).
//
// Memory is O(distinct buckets) — bounded by the dynamic range of the
// data and the accuracy, independent of the observation count.
type QuantileSketch struct {
	gamma    float64 // bucket base: (1+α)/(1−α)
	invLogG  float64 // 1/ln(γ), cached for the mapping
	accuracy float64

	pos  map[int32]uint64 // buckets of v > 0: key = ⌈log_γ v⌉
	neg  map[int32]uint64 // buckets of v < 0: key = ⌈log_γ −v⌉
	zero uint64           // exact count of v == 0

	count    uint64
	min, max float64
	sum      ExactSum
}

// NewQuantileSketch returns an empty sketch with the given relative
// accuracy (0 means DefaultSketchAccuracy).
func NewQuantileSketch(accuracy float64) *QuantileSketch {
	if accuracy <= 0 {
		accuracy = DefaultSketchAccuracy
	}
	gamma := (1 + accuracy) / (1 - accuracy)
	return &QuantileSketch{
		gamma:    gamma,
		invLogG:  1 / math.Log(gamma),
		accuracy: accuracy,
		pos:      make(map[int32]uint64),
		neg:      make(map[int32]uint64),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// Accuracy returns the sketch's relative accuracy.
func (s *QuantileSketch) Accuracy() float64 { return s.accuracy }

// key maps a positive magnitude to its bucket index.
func (s *QuantileSketch) key(v float64) int32 {
	return int32(math.Ceil(math.Log(v) * s.invLogG))
}

// rep returns the representative value of bucket k (the γ-midpoint of
// its bounds, DDSketch's 2γᵏ/(γ+1)).
func (s *QuantileSketch) rep(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add folds one observation in. NaN is ignored (a sketch bucket for it
// would poison quantiles silently; callers filter or crash upstream).
func (s *QuantileSketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	switch {
	case v == 0:
		s.zero++
	case v > 0:
		s.pos[s.key(v)]++
	default:
		s.neg[s.key(-v)]++
	}
	s.count++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.sum.Add(v)
}

// Merge folds another sketch in. Exact: integer bucket addition, exact
// min/max, exact sum. Panics if the accuracies differ — merging sketches
// with different bucket mappings is a configuration bug, not data.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.accuracy != s.accuracy {
		panic(fmt.Sprintf("metrics: merging sketches with accuracies %v and %v", s.accuracy, o.accuracy))
	}
	for k, c := range o.pos {
		s.pos[k] += c
	}
	for k, c := range o.neg {
		s.neg[k] += c
	}
	s.zero += o.zero
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.sum.Merge(&o.sum)
}

// Clone returns an independent copy of the sketch (point-in-time view;
// the copy merges like any other sketch). Used by the observability
// layer to hand a consistent histogram snapshot to a scraper while the
// producer keeps adding.
func (s *QuantileSketch) Clone() *QuantileSketch {
	out := &QuantileSketch{
		gamma:    s.gamma,
		invLogG:  s.invLogG,
		accuracy: s.accuracy,
		pos:      make(map[int32]uint64, len(s.pos)),
		neg:      make(map[int32]uint64, len(s.neg)),
		zero:     s.zero,
		count:    s.count,
		min:      s.min,
		max:      s.max,
		sum:      s.sum.Clone(),
	}
	for k, c := range s.pos {
		out.pos[k] = c
	}
	for k, c := range s.neg {
		out.neg[k] = c
	}
	return out
}

// N returns the observation count.
func (s *QuantileSketch) N() int { return int(s.count) }

// Mean returns the exact average, or NaN when empty.
func (s *QuantileSketch) Mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum.Sum() / float64(s.count)
}

// Min returns the exact minimum, or NaN when empty.
func (s *QuantileSketch) Min() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum, or NaN when empty.
func (s *QuantileSketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// sortedKeys returns a map's keys ascending.
func sortedKeys(m map[int32]uint64) []int32 {
	ks := make([]int32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// walk visits the sketch's buckets in ascending value order: negatives
// from most negative up, then zero, then positives.
func (s *QuantileSketch) walk(fn func(value float64, count uint64)) {
	nk := sortedKeys(s.neg)
	for i := len(nk) - 1; i >= 0; i-- {
		fn(-s.rep(nk[i]), s.neg[nk[i]])
	}
	if s.zero > 0 {
		fn(0, s.zero)
	}
	for _, k := range sortedKeys(s.pos) {
		fn(s.rep(k), s.pos[k])
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), or NaN when empty
// (Sample.Quantile's shape). q=0 and q=1 are the exact min and max;
// interior quantiles are bucket representatives within the relative
// accuracy. Values are clamped into [min, max] so bucket rounding never
// reports beyond the observed range.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// rank follows Sample's convention: position q·(n−1) in the sorted
	// order, truncated to the containing observation.
	rank := uint64(q * float64(s.count-1))
	var (
		cum uint64
		out float64
		set bool
	)
	s.walk(func(v float64, c uint64) {
		if set {
			return
		}
		cum += c
		if cum > rank {
			out = v
			set = true
		}
	})
	if !set {
		out = s.max
	}
	if out < s.min {
		out = s.min
	}
	if out > s.max {
		out = s.max
	}
	return out
}

// CDF returns (value, fraction≤value) pairs at each occupied bucket
// (Sample.CDF's shape, at sketch resolution). The final fraction is
// exactly 1.
func (s *QuantileSketch) CDF() []Point {
	if s.count == 0 {
		return nil
	}
	out := make([]Point, 0, len(s.pos)+len(s.neg)+1)
	var cum uint64
	n := float64(s.count)
	s.walk(func(v float64, c uint64) {
		cum += c
		if v < s.min {
			v = s.min
		}
		if v > s.max {
			v = s.max
		}
		out = append(out, Point{X: v, Y: float64(cum) / n})
	})
	return out
}

// bucketJSON is one serialized sketch bucket.
type bucketJSON struct {
	K int32  `json:"k"`
	C uint64 `json:"c"`
}

// sketchJSON is the wire form of a QuantileSketch. Buckets are sorted
// by key so the encoding of a given sketch state is unique.
type sketchJSON struct {
	Accuracy float64      `json:"accuracy"`
	Pos      []bucketJSON `json:"pos,omitempty"`
	Neg      []bucketJSON `json:"neg,omitempty"`
	Zero     uint64       `json:"zero,omitempty"`
	Count    uint64       `json:"count"`
	Min      float64      `json:"min"`
	Max      float64      `json:"max"`
	Sum      ExactSum     `json:"sum"`
}

func bucketsJSON(m map[int32]uint64) []bucketJSON {
	if len(m) == 0 {
		return nil
	}
	out := make([]bucketJSON, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, bucketJSON{K: k, C: m[k]})
	}
	return out
}

// MarshalJSON serializes the sketch state losslessly (zigzag-serve
// -json prints the latency sketch through it). Infinite empty-state
// min/max are mapped to 0 with Count==0 standing in, keeping the
// encoding valid JSON.
func (s *QuantileSketch) MarshalJSON() ([]byte, error) {
	w := sketchJSON{
		Accuracy: s.accuracy,
		Pos:      bucketsJSON(s.pos),
		Neg:      bucketsJSON(s.neg),
		Zero:     s.zero,
		Count:    s.count,
		Sum:      s.sum,
	}
	if s.count > 0 {
		w.Min, w.Max = s.min, s.max
	}
	return json.Marshal(w)
}
