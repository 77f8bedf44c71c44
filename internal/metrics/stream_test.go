package metrics

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestExactSumMatchesBigFloat pins exactness: the rounded sum equals
// the arbitrary-precision reference for adversarial magnitude spreads.
func TestExactSumMatchesBigFloat(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for rep := 0; rep < 20; rep++ {
		var s ExactSum
		exact := new(big.Float).SetPrec(400)
		for i := 0; i < 300; i++ {
			v := r.NormFloat64() * math.Pow(10, float64(r.Intn(30)-15))
			s.Add(v)
			exact.Add(exact, new(big.Float).SetPrec(400).SetFloat64(v))
		}
		want, _ := exact.Float64()
		if got := s.Sum(); got != want {
			t.Fatalf("rep %d: ExactSum=%v big.Float=%v", rep, got, want)
		}
	}
}

// TestExactSumMergeInvariant pins the merge contract: any grouping of
// the same values into shards, merged in any order, rounds to the
// identical float64.
func TestExactSumMergeInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(80)-40))
	}
	var ref ExactSum
	for _, v := range vals {
		ref.Add(v)
	}
	want := ref.Sum()
	for _, shards := range []int{2, 3, 7, 16} {
		parts := make([]ExactSum, shards)
		for i, v := range vals {
			parts[i%shards].Add(v)
		}
		// Merge in a scrambled order.
		order := r.Perm(shards)
		var m ExactSum
		for _, idx := range order {
			m.Merge(&parts[idx])
		}
		if got := m.Sum(); got != want {
			t.Fatalf("shards=%d: merged sum %v != unsharded %v", shards, got, want)
		}
	}
}

// sketchObservablesEqual compares every output-bearing piece of sketch
// state: bucket counts, zero count, total, exact min/max and the
// rounded exact sum. The ExactSum expansion itself is not canonical
// across add/merge orders — only its rounded value is — so whole-struct
// DeepEqual would over-constrain the contract.
func sketchObservablesEqual(a, b *QuantileSketch) bool {
	return reflect.DeepEqual(a.pos, b.pos) &&
		reflect.DeepEqual(a.neg, b.neg) &&
		a.zero == b.zero && a.count == b.count &&
		a.min == b.min && a.max == b.max &&
		a.sum.Sum() == b.sum.Sum() &&
		a.accuracy == b.accuracy
}

// TestSketchMergeShardInvariant pins the sketch's merge contract:
// splitting a stream into 1, 2 and 7 shards and merging in any order
// reproduces the unsharded sketch observables exactly (bucket counts
// included).
func TestSketchMergeShardInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vals := make([]float64, 2000)
	for i := range vals {
		switch i % 5 {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = -math.Abs(r.NormFloat64())
		default:
			vals[i] = math.Exp(r.NormFloat64() * 4)
		}
	}
	whole := NewQuantileSketch(0)
	for _, v := range vals {
		whole.Add(v)
	}
	for _, shards := range []int{1, 2, 7} {
		parts := make([]*QuantileSketch, shards)
		for i := range parts {
			parts[i] = NewQuantileSketch(0)
		}
		for i, v := range vals {
			parts[i%shards].Add(v)
		}
		merged := NewQuantileSketch(0)
		for _, idx := range r.Perm(shards) {
			merged.Merge(parts[idx])
		}
		if !sketchObservablesEqual(merged, whole) {
			t.Fatalf("shards=%d: merged sketch state diverged from unsharded", shards)
		}
	}
}

// TestSketchQuantileAccuracy pins the DDSketch guarantee against the
// exact order statistics of a Sample fed the same values.
func TestSketchQuantileAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sk := NewQuantileSketch(0.01)
	var ref Sample
	for i := 0; i < 5000; i++ {
		v := math.Exp(r.NormFloat64() * 2)
		sk.Add(v)
		ref.Add(v)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got, want := sk.Quantile(q), ref.Quantile(q)
		// The exact reference interpolates between neighbours; allow the
		// sketch its relative accuracy plus one bucket of slack.
		if math.Abs(got-want) > 0.035*math.Abs(want)+1e-12 {
			t.Errorf("q=%v: sketch %v vs exact %v", q, got, want)
		}
	}
	if sk.Quantile(0) != ref.Quantile(0) || sk.Quantile(1) != ref.Quantile(1) {
		t.Error("q=0/1 must be the exact min/max")
	}
	if math.Abs(sk.Mean()-ref.Mean()) > 1e-12*math.Abs(ref.Mean()) {
		t.Errorf("sketch mean %v vs exact %v", sk.Mean(), ref.Mean())
	}
}

func TestSketchCDFMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sk := NewQuantileSketch(0)
	for i := 0; i < 1000; i++ {
		sk.Add(r.NormFloat64())
	}
	pts := sk.CDF()
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if last := pts[len(pts)-1].Y; last != 1 {
		t.Fatalf("CDF must end exactly at 1, got %v", last)
	}
}

// decodeExactSum rebuilds an ExactSum from its wire form by re-adding
// the partials, as a reader of MarshalJSON's output would.
func decodeExactSum(w exactSumJSON) ExactSum {
	var s ExactSum
	for _, p := range w.Parts {
		s.Add(p)
	}
	if w.HasSpec {
		s.special, s.hasSpec = w.Special, true
	}
	return s
}

// decodeSketch rebuilds a QuantileSketch from MarshalJSON's output.
// The package writes the encoding but does not read it, so the round
// trip tests decode it here.
func decodeSketch(t *testing.T, data []byte) *QuantileSketch {
	t.Helper()
	var w struct {
		sketchJSON
		Sum exactSumJSON `json:"sum"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	s := NewQuantileSketch(w.Accuracy)
	for _, b := range w.Pos {
		s.pos[b.K] = b.C
	}
	for _, b := range w.Neg {
		s.neg[b.K] = b.C
	}
	s.zero, s.count = w.Zero, w.Count
	if w.Count > 0 {
		s.min, s.max = w.Min, w.Max
	}
	s.sum = decodeExactSum(w.Sum)
	return s
}

// TestExactSumJSONRoundTrip pins that MarshalJSON carries the exact
// value: re-adding the encoded partials rounds to the same sum.
func TestExactSumJSONRoundTrip(t *testing.T) {
	var s ExactSum
	for _, v := range []float64{1e300, 1e-300, -1e300, 3.5, 0.1} {
		s.Add(v)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var w exactSumJSON
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	if back := decodeExactSum(w); back.Sum() != s.Sum() {
		t.Fatalf("round trip changed sum: %v != %v", back.Sum(), s.Sum())
	}
}

// TestSketchJSONRoundTrip pins that MarshalJSON is lossless: the
// decoded sketch has the same observables and keeps merging exactly.
func TestSketchJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sk := NewQuantileSketch(0.02)
	for i := 0; i < 500; i++ {
		sk.Add(r.NormFloat64() * 100)
	}
	sk.Add(0)
	data, err := json.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	back := decodeSketch(t, data)
	if !sketchObservablesEqual(back, sk) {
		t.Fatal("JSON round trip changed sketch state")
	}
	// A round-tripped sketch must keep merging exactly: merge two copies
	// through JSON and compare to the direct merge.
	data2, _ := json.Marshal(sk)
	other := decodeSketch(t, data2)
	direct := NewQuantileSketch(0.02)
	direct.Merge(sk)
	direct.Merge(sk)
	viaJSON := NewQuantileSketch(0.02)
	viaJSON.Merge(back)
	viaJSON.Merge(other)
	if !sketchObservablesEqual(direct, viaJSON) {
		t.Fatal("merging via JSON round trip diverged from direct merge")
	}
}

// TestSketchMarshalJSONBytes pins the exact encoding zigzag-serve -json
// prints as latency_ns: sorted buckets of both signs, the zero count,
// exact min/max and the ExactSum expansion, and an empty sketch's
// finite min/max.
func TestSketchMarshalJSONBytes(t *testing.T) {
	sk := NewQuantileSketch(0.01)
	for _, v := range []float64{1500, 1500, 2.5e6, 0.1, 0, -3} {
		sk.Add(v)
	}
	for _, tc := range []struct {
		sk   *QuantileSketch
		want string
	}{
		{sk, `{"accuracy":0.01,"pos":[{"k":-115,"c":1},{"k":366,"c":2},{"k":737,"c":1}],"neg":[{"k":55,"c":1}],"zero":1,"count":6,"min":-3,"max":2500000,"sum":{"parts":[-8.326672684688674e-17,-9.313216864370588e-11,2502997.1]}}`},
		{NewQuantileSketch(0), `{"accuracy":0.01,"count":0,"min":0,"max":0,"sum":{}}`},
	} {
		data, err := json.Marshal(tc.sk)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Errorf("MarshalJSON = %s\nwant          %s", data, tc.want)
		}
	}
}

func TestSketchEmptyAndZeroes(t *testing.T) {
	sk := NewQuantileSketch(0)
	if !math.IsNaN(sk.Quantile(0.5)) || !math.IsNaN(sk.Mean()) || sk.CDF() != nil {
		t.Fatal("empty sketch should be NaN/nil")
	}
	for i := 0; i < 5; i++ {
		sk.Add(0)
	}
	if sk.Quantile(0.5) != 0 || sk.Min() != 0 || sk.Max() != 0 {
		t.Fatal("all-zero sketch quantiles should be 0")
	}
}

// TestSketchWalkOrder pins that CDF visits buckets in ascending value
// order with negatives first (a regression trap for the key sort).
func TestSketchWalkOrder(t *testing.T) {
	sk := NewQuantileSketch(0)
	for _, v := range []float64{5, -3, 0, 0.5, -0.1, 80} {
		sk.Add(v)
	}
	pts := sk.CDF()
	xs := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("CDF xs not sorted: %v", xs)
	}
	if xs[0] > -2.9 || xs[len(xs)-1] < 79 {
		t.Fatalf("CDF range wrong: %v", xs)
	}
}

// TestExactSumCloneIndependence pins the snapshot contract the
// observability layer relies on: a clone reproduces the exact value and
// is fully detached — later Adds on either side leave the other alone.
func TestExactSumCloneIndependence(t *testing.T) {
	var s ExactSum
	for _, v := range []float64{1e16, 1, -1e16, 0.5, math.Pi} {
		s.Add(v)
	}
	c := s.Clone()
	if c.Sum() != s.Sum() {
		t.Fatalf("clone sum %v != original %v", c.Sum(), s.Sum())
	}
	s.Add(1e9)
	if c.Sum() == s.Sum() {
		t.Fatal("clone tracked the original's later Add")
	}
	before := s.Sum()
	c.Add(-7)
	if s.Sum() != before {
		t.Fatal("mutating the clone changed the original")
	}
	// A clone merges like any other shard.
	var m ExactSum
	m.Merge(&c)
	if m.Sum() != c.Sum() {
		t.Fatalf("merged clone = %v, want %v", m.Sum(), c.Sum())
	}
	// Special values survive the copy.
	s.Add(math.Inf(1))
	inf := s.Clone()
	if !math.IsInf(inf.Sum(), 1) {
		t.Fatalf("clone lost +Inf: %v", inf.Sum())
	}
}

// TestSketchCloneIndependence pins QuantileSketch.Clone: identical
// point-in-time statistics, full detachment afterward, and the clone
// merges like any other sketch.
func TestSketchCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := NewQuantileSketch(0.01)
	for i := 0; i < 2000; i++ {
		s.Add(math.Exp(r.NormFloat64()*2) - 0.5) // mixed signs + zero band
	}
	c := s.Clone()
	if c.N() != s.N() || c.Mean() != s.Mean() || c.Min() != s.Min() || c.Max() != s.Max() {
		t.Fatalf("clone stats differ: N %d/%d mean %v/%v", c.N(), s.N(), c.Mean(), s.Mean())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		if c.Quantile(q) != s.Quantile(q) {
			t.Fatalf("q%g: clone %v != original %v", q, c.Quantile(q), s.Quantile(q))
		}
	}
	// Detachment both ways.
	p50 := c.Quantile(0.5)
	for i := 0; i < 500; i++ {
		s.Add(1e9)
	}
	if c.N() != 2000 || c.Quantile(0.5) != p50 {
		t.Fatal("clone tracked the original's later Adds")
	}
	n := s.N()
	c.Add(-1e9)
	if s.N() != n {
		t.Fatal("mutating the clone changed the original")
	}
	// Merge equivalence: (clone merged into empty) == clone.
	m := NewQuantileSketch(0.01)
	m.Merge(c)
	if m.N() != c.N() || m.Quantile(0.9) != c.Quantile(0.9) {
		t.Fatalf("merged clone N=%d q90=%v, want N=%d q90=%v", m.N(), m.Quantile(0.9), c.N(), c.Quantile(0.9))
	}
}
