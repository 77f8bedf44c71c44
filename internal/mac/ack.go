package mac

import (
	"math/rand"

	"zigzag/internal/runner"
)

// AckOffsetBound returns the analytic lower bound of Lemma 4.4.1: the
// probability that the time offset between two colliding packets in the
// *second* collision suffices to send a synchronous ACK
// (offset ≥ SIFS + ACK). After the first collision both senders double
// their window, so each picks a slot uniformly in a window of size
// 2·(CWMin+1) slots; the probability the offset is too small is upper
// bounded by (SIFS+ACK)/(S·CW), giving ≥ 0.9375 for 802.11g.
func AckOffsetBound() float64 {
	needed := float64(SIFS+ACKDuration) / float64(SlotTime) // in slots
	cw := float64(CWMin + 1)
	return 1 - needed/cw // 1 − (SIFS+ACK)/(S·CW), CW = 32 ⇒ 0.9375
}

// AckOffsetProbability Monte-Carlo-estimates the same probability: both
// senders pick a uniform slot in a window of 2·(CWMin+1) slots and the
// offset must be at least SIFS+ACK. It converges to slightly above the
// analytic bound (the bound is loose because it ignores edge effects).
//
// The draws are so cheap that individual dispatch would be all
// overhead, so the engine maps over fixed-size batches; each batch owns
// one seed-derived stream, keeping the estimate worker-count-invariant.
func AckOffsetProbability(trials int, seed int64, workers int) float64 {
	if trials <= 0 {
		trials = 100000
	}
	window := 2 * (CWMin + 1)
	neededSlots := int((SIFS + ACKDuration + SlotTime - 1) / SlotTime)
	batches := runner.Batches(trials, 8192)
	counts := runner.Map(runner.Batch{Hi: len(batches)}, runner.Options{Workers: workers, BaseSeed: seed}, nil, nil,
		func(_ struct{}, bi int, rng *rand.Rand) int {
			ok := 0
			for i := batches[bi].Lo; i < batches[bi].Hi; i++ {
				a := rng.Intn(window)
				b := rng.Intn(window)
				d := a - b
				if d < 0 {
					d = -d
				}
				if d >= neededSlots {
					ok++
				}
			}
			return ok
		})
	ok := 0
	for _, c := range counts {
		ok += c
	}
	return float64(ok) / float64(trials)
}
