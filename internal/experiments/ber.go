package experiments

import (
	"zigzag/internal/bitutil"
	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/metrics"
	"zigzag/internal/modem"
	"zigzag/internal/session"
)

// Fig53Result carries the BER-vs-SNR comparison (Fig 5-3).
type Fig53Result struct {
	ZigZag        metrics.Series // forward+backward with MRC
	ZigZagFwdOnly metrics.Series // ablation
	CollisionFree metrics.Series // packets in separate time slots

	// MeanRatio is the average CollisionFree/ZigZag BER ratio across the
	// swept SNRs (the paper reports 1.4×, i.e. ZigZag is *better* than
	// no interference at all thanks to MRC over two receptions).
	MeanRatio float64
}

// Fig53BERvsSNR reproduces Fig 5-3: the bit error rate of ZigZag-decoded
// collision pairs versus packets sent in separate time slots, across
// SNRs. 802.11 is omitted as in the paper (its BER on these collisions
// is ≈0.5).
func Fig53BERvsSNR(sc Scale, seed int64) Fig53Result {
	return Fig53FromCounts(Fig53Counts(sc, seed, Shard{}))
}

// Fig53Counts runs one shard of the Fig 5-3 sweep and returns the raw
// bit tallies: three series (ZigZag, forward-only, collision-free) in
// that order. Shards from the same (sc, seed) merge with MergeCounts;
// the full merge renders — via Fig53FromCounts — byte-identically to
// the unsharded Fig53BERvsSNR at any shard split and worker count.
func Fig53Counts(sc Scale, seed int64, sh Shard) []CountSeries {
	zz := CountSeries{Name: "Fig 5-3: BER vs SNR — ZigZag (fwd+bwd MRC)"}
	fwd := CountSeries{Name: "Fig 5-3: BER vs SNR — ZigZag (forward only)"}
	cf := CountSeries{Name: "Fig 5-3: BER vs SNR — Collision-Free Scheduler"}
	for _, snr := range []float64{4, 5, 6, 7, 8, 9, 10} {
		zz.Points = append(zz.Points, countPoint(snr, berAtCounts(sc, seed, snr, false, sh)))
		fwd.Points = append(fwd.Points, countPoint(snr, berAtCounts(sc, seed, snr, true, sh)))
		cf.Points = append(cf.Points, countPoint(snr, berCollisionFreeCounts(sc, seed, snr, sh)))
	}
	return []CountSeries{zz, fwd, cf}
}

// Fig53FromCounts renders merged Fig 5-3 tallies to the figure,
// including the MeanRatio summary.
func Fig53FromCounts(cs []CountSeries) Fig53Result {
	var out Fig53Result
	out.ZigZag = cs[0].series()
	out.ZigZagFwdOnly = cs[1].series()
	out.CollisionFree = cs[2].series()
	ratioSum, ratioN := 0.0, 0
	for i := range out.ZigZag.Points {
		zz := out.ZigZag.Points[i].Y
		cf := out.CollisionFree.Points[i].Y
		if zz > 0 {
			ratioSum += cf / zz
			ratioN++
		} else if cf > 0 {
			ratioSum += 2 // zigzag had zero errors where CF had some
			ratioN++
		}
	}
	if ratioN > 0 {
		out.MeanRatio = ratioSum / float64(ratioN)
	}
	return out
}

// countPoint lifts a bitCounts tally to a mergeable CountPoint at x.
func countPoint(x float64, c bitCounts) CountPoint {
	return CountPoint{X: x, Err: int64(c.errBits), Tot: int64(c.totBits)}
}

// bitCounts accumulates a trial's error/total bit tallies.
type bitCounts struct{ errBits, totBits int }

func (c bitCounts) rate() float64 {
	if c.totBits == 0 {
		return 0
	}
	return float64(c.errBits) / float64(c.totBits)
}

// berAt measures ZigZag's BER over collision pairs at a symmetric SNR.
// Pairs run as independent trials on the worker pool, each on its
// worker's pooled session.
func berAt(sc Scale, seed int64, snr float64, fwdOnly bool) float64 {
	return berAtCounts(sc, seed, snr, fwdOnly, Shard{}).rate()
}

// berAtCounts is berAt's mergeable form: the summed bit tallies of one
// shard of the pair sweep, folded through the streaming reducer.
func berAtCounts(sc Scale, seed int64, snr float64, fwdOnly bool, sh Shard) bitCounts {
	cfg := core.DefaultConfig()
	cfg.DisableBackward = fwdOnly
	cfg.Workers = sc.Workers
	return reduceCounts(cfg, sc.Pairs, sh, cfg.Workers, seed^int64(snr*1000), func(sess *session.Session, _ int) bitCounts {
		rng := sess.Rng
		var c bitCounts
		s := newPairScenario(sess, sc.Payload, []float64{snr, snr}, 0.05)
		// The paper's offline processing knows the (fixed) packet size;
		// give the decoder the same knowledge so header-decode luck does
		// not dominate the low-SNR BER measurement.
		for i := range s.metas {
			s.metas[i].BitLen = len(s.truth[i])
		}
		r1, r2 := s.collisionPair(rng)
		res, err := sess.Decode(s.metas, s.pair(r1, r2))
		for i := range s.truth {
			c.totBits += len(s.truth[i])
			if err != nil || i >= len(res.Packets) {
				c.errBits += len(s.truth[i]) / 2
				continue
			}
			ber := bitutil.BitErrorRate(s.truth[i], res.Packets[i].Bits)
			c.errBits += int(ber * float64(len(s.truth[i])))
		}
		return c
	})
}

// berCollisionFree measures the same decoder on interference-free
// packets (each in its own slot).
func berCollisionFree(sc Scale, seed int64, snr float64) float64 {
	return berCollisionFreeCounts(sc, seed, snr, Shard{}).rate()
}

// berCollisionFreeCounts is berCollisionFree's mergeable shard form.
func berCollisionFreeCounts(sc Scale, seed int64, snr float64, sh Shard) bitCounts {
	cfg := core.DefaultConfig()
	cfg.Workers = sc.Workers
	return reduceCounts(cfg, 2*sc.Pairs, sh, cfg.Workers, seed^int64(snr*1000)^0x5a5a, func(sess *session.Session, _ int) bitCounts {
		var c bitCounts
		s := newPairScenario(sess, sc.Payload, []float64{snr}, 0.05)
		air := sess.Air
		air.NoisePower = 0.05
		air.RandomizePhase = true
		buf := sess.Mix(len(s.waves[0])+80, channel.Emission{Samples: s.waves[0], Link: s.links[0], Offset: 40})
		sync, ok := sess.Sync.Measure(buf, 40, 3, s.metas[0].Freq)
		c.totBits = len(s.truth[0])
		if !ok {
			c.errBits = len(s.truth[0]) / 2
			return c
		}
		res := sess.RX.DecodeKnownLength(buf, sync, modem.BPSK, len(s.truth[0]))
		ber := bitutil.BitErrorRate(s.truth[0], res.Bits)
		c.errBits = int(ber * float64(len(s.truth[0])))
		return c
	})
}
