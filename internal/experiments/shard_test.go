package experiments

import (
	"reflect"
	"testing"

	"zigzag/internal/bitutil"
	"zigzag/internal/core"
	"zigzag/internal/session"
)

// mergeParts runs a counts function shard by shard and merges the
// partials, failing the test on any merge mismatch.
func mergeParts(t *testing.T, shards int, f func(sh Shard) []CountSeries) []CountSeries {
	t.Helper()
	merged := f(Shard{Shards: shards, Index: 0})
	for i := 1; i < shards; i++ {
		if err := MergeCounts(merged, f(Shard{Shards: shards, Index: i})); err != nil {
			t.Fatalf("merge shard %d/%d: %v", i, shards, err)
		}
	}
	return merged
}

// TestFig53ShardInvariant is the experiments half of the shard/merge
// identity: splitting the fig5-3 sweep into 2 or 7 shards and
// merging the tallies is byte-identical to the unsharded run, at more
// than one worker count, and renders to the exact Fig53BERvsSNR
// figure. With microDet's 2 pairs per point a 7-way split also leaves
// some shards empty, covering the degenerate ranges.
func TestFig53ShardInvariant(t *testing.T) {
	sc := scaled(2)
	whole := Fig53Counts(sc, 11, Shard{})
	for _, shards := range []int{2, 7} {
		for _, w := range workerSweep() {
			got := mergeParts(t, shards, func(sh Shard) []CountSeries {
				return Fig53Counts(scaled(w), 11, sh)
			})
			if !reflect.DeepEqual(got, whole) {
				t.Fatalf("shards=%d workers=%d: merged counts diverged\nwhole: %+v\n  got: %+v", shards, w, whole, got)
			}
		}
	}
	if got, want := Fig53FromCounts(whole), Fig53BERvsSNR(sc, 11); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromCounts render diverged\nwant: %+v\n got: %+v", want, got)
	}
}

// TestHarshShardInvariant pins the same property for the harsh suite
// (k=3 exercises the generalized SIC path under sharding).
func TestHarshShardInvariant(t *testing.T) {
	sc := scaled(2)
	whole := HarshCounts(sc, 7, 3, Shard{})
	got := mergeParts(t, 2, func(sh Shard) []CountSeries {
		return HarshCounts(sc, 7, 3, sh)
	})
	if !reflect.DeepEqual(got, whole) {
		t.Fatalf("merged harsh counts diverged\nwhole: %+v\n  got: %+v", whole, got)
	}
	if got, want := HarshFromCounts(whole), HarshChannelSuiteK(sc, 7, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromCounts render diverged\nwant: %+v\n got: %+v", want, got)
	}
}

// TestKWayShardInvariant pins the k-way sweep's shard identity and
// render equivalence.
func TestKWayShardInvariant(t *testing.T) {
	sc := scaled(2)
	whole := KWayCounts(sc, 5, Shard{})
	got := mergeParts(t, 2, func(sh Shard) []CountSeries {
		return KWayCounts(sc, 5, sh)
	})
	if !reflect.DeepEqual(got, whole) {
		t.Fatalf("merged k-way counts diverged\nwhole: %+v\n  got: %+v", whole, got)
	}
	if got, want := KWayFromCounts(whole), KWayOrderSweep(sc, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromCounts render diverged\nwant: %+v\n got: %+v", want, got)
	}
}

// sumCounts is the historical materialize-then-fold path: one bitCounts
// per trial (session.MapShard, O(trials) memory), folded serially.
func sumCounts(cs []bitCounts) bitCounts {
	var t bitCounts
	for _, c := range cs {
		t.errBits += c.errBits
		t.totBits += c.totBits
	}
	return t
}

// TestLegacyMetricsOracle pins the streaming reducer against the
// historical materialize-then-fold path: both sum the same integers
// over the same trials, so their tallies are bit-identical, sharded or
// not, at any worker count. The trial decodes a collision pair on the
// pooled session, so a session reused across trials differently by
// the two schedulers would show.
func TestLegacyMetricsOracle(t *testing.T) {
	cfg := core.DefaultConfig()
	trial := func(sess *session.Session, _ int) bitCounts {
		s := newPairScenario(sess, 60, []float64{harshSNR, harshSNR}, 0.05)
		r1, r2 := s.collisionPair(sess.Rng)
		res, err := sess.Decode(s.metas, s.pair(r1, r2))
		var c bitCounts
		for i := range s.truth {
			c.totBits += len(s.truth[i])
			if err != nil || i >= len(res.Packets) {
				c.errBits += len(s.truth[i]) / 2
				continue
			}
			c.errBits += int(bitutil.BitErrorRate(s.truth[i], res.Packets[i].Bits) * float64(len(s.truth[i])))
		}
		return c
	}
	const trials = 5
	for _, sh := range []Shard{{}, {Shards: 2, Index: 0}, {Shards: 2, Index: 1}} {
		for _, workers := range []int{1, 2} {
			want := sumCounts(session.MapShard(cfg, sh.rangeOf(trials), workers, 7, trial))
			if got := reduceCounts(cfg, trials, sh, workers, 7, trial); got != want {
				t.Fatalf("shard %+v workers %d: streaming %+v, materialized %+v", sh, workers, got, want)
			}
		}
	}
}

// TestMergeCountsRejectsMismatch pins that merging incompatible shard
// files errors instead of producing a silently wrong figure.
func TestMergeCountsRejectsMismatch(t *testing.T) {
	a := []CountSeries{{Name: "s", Points: []CountPoint{{X: 1, Err: 2, Tot: 10}}}}
	if err := MergeCounts(a, []CountSeries{{Name: "other", Points: []CountPoint{{X: 1}}}}); err == nil {
		t.Fatal("name mismatch accepted")
	}
	if err := MergeCounts(a, []CountSeries{{Name: "s", Points: []CountPoint{{X: 2}}}}); err == nil {
		t.Fatal("x mismatch accepted")
	}
	if err := MergeCounts(a, []CountSeries{{Name: "s"}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := MergeCounts(a, nil); err == nil {
		t.Fatal("series count mismatch accepted")
	}
	b := []CountSeries{{Name: "s", Points: []CountPoint{{X: 1, Err: 1, Tot: 5}}}}
	if err := MergeCounts(a, b); err != nil {
		t.Fatalf("valid merge rejected: %v", err)
	}
	if a[0].Points[0].Err != 3 || a[0].Points[0].Tot != 15 {
		t.Fatalf("merge arithmetic wrong: %+v", a[0].Points[0])
	}
}
