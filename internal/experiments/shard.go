package experiments

import (
	"fmt"

	"zigzag/internal/core"
	"zigzag/internal/metrics"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// Sharded, streaming execution of the counting sweeps.
//
// The BER-style suites (fig5-3, harsh, k-way) reduce every operating
// point to two integers — error bits and total bits — summed over
// Monte-Carlo trials. Integer addition is exactly associative and
// commutative, so a sweep can split its trial space into contiguous
// shards (run by different processes), fold each shard through the
// streaming reducer (memory O(workers), not O(trials)), and merge the
// partial counts to the byte-identical figure: per-trial seeds derive
// from the global trial index, so shard boundaries never move a random
// draw. Materializing one bitCounts per trial and folding serially sums
// the same integers over the same trials; the tests use that as the
// reducer's oracle.

// Shard names one slice of a sweep's trial space: shard Index of
// Shards. The zero value (or Shards <= 1) is the whole sweep.
type Shard struct {
	Shards int
	Index  int
}

// rangeOf returns the shard's contiguous global trial range for a
// point that runs trials trials in total.
func (sh Shard) rangeOf(trials int) runner.Batch {
	if sh.Shards <= 1 {
		return runner.Batch{Lo: 0, Hi: trials}
	}
	return runner.ShardRange(trials, sh.Shards, sh.Index)
}

// CountPoint is one operating point's partial tally: X is the swept
// parameter, Err/Tot the error and total bit counts over the shard's
// trials.
type CountPoint struct {
	X   float64 `json:"x"`
	Err int64   `json:"err"`
	Tot int64   `json:"tot"`
}

// rate converts the tally to a BER (bitCounts.rate's shape: empty
// tallies are 0, matching unswept shards and zero-trial scales).
func (p CountPoint) rate() float64 {
	if p.Tot == 0 {
		return 0
	}
	return float64(p.Err) / float64(p.Tot)
}

// CountSeries is a named sequence of partial tallies — the mergeable
// form of a metrics.Series whose Y is a bit error rate.
type CountSeries struct {
	Name   string       `json:"name"`
	Points []CountPoint `json:"points"`
}

// series renders the tallies to the printable metrics.Series the
// figure code consumes.
func (cs CountSeries) series() metrics.Series {
	out := metrics.Series{Name: cs.Name}
	for _, p := range cs.Points {
		out.Points = append(out.Points, metrics.Point{X: p.X, Y: p.rate()})
	}
	return out
}

// MergeCounts folds src into dst pointwise. The two slices must be the
// same sweep — same series names, point counts and X values — which is
// how mismatched shard files surface as errors instead of silently
// wrong figures.
func MergeCounts(dst, src []CountSeries) error {
	if len(dst) != len(src) {
		return fmt.Errorf("merge: %d series vs %d", len(dst), len(src))
	}
	for i := range dst {
		if dst[i].Name != src[i].Name {
			return fmt.Errorf("merge: series %d is %q vs %q", i, dst[i].Name, src[i].Name)
		}
		if len(dst[i].Points) != len(src[i].Points) {
			return fmt.Errorf("merge: series %q has %d points vs %d", dst[i].Name, len(dst[i].Points), len(src[i].Points))
		}
		for j := range dst[i].Points {
			d, s := &dst[i].Points[j], src[i].Points[j]
			if d.X != s.X {
				return fmt.Errorf("merge: series %q point %d at x=%v vs x=%v", dst[i].Name, j, d.X, s.X)
			}
			d.Err += s.Err
			d.Tot += s.Tot
		}
	}
	return nil
}

// addCounts is bitCounts' exact merge.
func addCounts(a, b bitCounts) bitCounts {
	a.errBits += b.errBits
	a.totBits += b.totBits
	return a
}

// reduceCounts runs fn over the shard's slice of a trials-long sweep on
// pooled sessions and returns the summed tallies, holding O(workers)
// state.
func reduceCounts(cfg core.Config, trials int, sh Shard, workers int, baseSeed int64, fn func(sess *session.Session, trial int) bitCounts) bitCounts {
	return session.ReduceShard(cfg, sh.rangeOf(trials), workers, baseSeed,
		func() bitCounts { return bitCounts{} },
		func(sess *session.Session, acc bitCounts, trial int) bitCounts {
			return addCounts(acc, fn(sess, trial))
		},
		addCounts)
}
