package experiments

import (
	"fmt"

	"zigzag/internal/impair"
	"zigzag/internal/metrics"
	"zigzag/internal/runner"
)

// KWayResult carries the collision-order sweep (§7 of the paper): how
// joint-decode BER grows as k simultaneous senders collide k times,
// on the static channel and under mild Rayleigh fading. The static
// series isolates the cost of the longer cancellation chains (each
// extra packet is one more re-encode error source per chunk); the
// fading series shows how that cost compounds when the chunk-wise
// channel re-estimation is already working against a moving channel.
type KWayResult struct {
	BERvsK       metrics.Series
	BERvsKFading metrics.Series
}

// kwayFadingDoppler is the normalized Doppler of the fading leg —
// within the regime the paper's tracker rides comfortably at k=2, so
// growth along k is attributable to collision order.
const kwayFadingDoppler = 1e-4

// KWayOrderSweep measures BER at collision orders k = 2, 3, 4 at
// harshSNR. Like every experiment it is byte-identical at any
// Scale.Workers value (splitmix per-trial seeding; the determinism
// suite pins the k=3 harsh sweep).
func KWayOrderSweep(sc Scale, seed int64) KWayResult {
	return KWayFromCounts(KWayCounts(sc, seed, Shard{}))
}

// KWayCounts runs one shard of the collision-order sweep and returns
// the raw bit tallies: two series (static, fading) in KWayResult field
// order. Shards from the same (sc, seed) merge with MergeCounts and
// render via KWayFromCounts.
func KWayCounts(sc Scale, seed int64, sh Shard) []CountSeries {
	static := CountSeries{Name: "k-way: BER vs collision order k (static channel)"}
	fading := CountSeries{Name: fmt.Sprintf("k-way: BER vs collision order k (Doppler %g)", kwayFadingDoppler)}
	for i, k := range []int{2, 3, 4} {
		static.Points = append(static.Points,
			countPoint(float64(k), berHarshCounts(sc, runner.TrialSeed(seed, 500+i), impair.Profile{}, false, k, sh)))
		fading.Points = append(fading.Points,
			countPoint(float64(k), berHarshCounts(sc, runner.TrialSeed(seed, 600+i), impair.Profile{Doppler: kwayFadingDoppler}, false, k, sh)))
	}
	return []CountSeries{static, fading}
}

// KWayFromCounts renders merged k-way tallies to the figure.
func KWayFromCounts(cs []CountSeries) KWayResult {
	return KWayResult{BERvsK: cs[0].series(), BERvsKFading: cs[1].series()}
}
