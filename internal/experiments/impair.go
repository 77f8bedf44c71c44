package experiments

import (
	"fmt"

	"zigzag/internal/core"
	"zigzag/internal/impair"
	"zigzag/internal/metrics"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// HarshResult carries the harsh-channel suite: the BER of jointly
// decoded collision pairs under the time-varying impairment engine
// (internal/impair), swept along the axes the paper's testbed
// conditions vary (Figs 12–16 territory: mobility-induced fading,
// oscillator quality, coexistence interference). The Doppler sweep is
// run twice — with the re-encoding phase tracker on and off — because
// that is the paper's central robustness mechanism: chunk-wise
// re-estimation is what lets ZigZag ride a channel that moves within a
// packet, and the ablation shows exactly where it stops being enough.
type HarshResult struct {
	// BERvsDoppler sweeps the normalized Doppler f_d·T of Rayleigh
	// fading, full decoder vs the DisablePhaseTracking ablation.
	BERvsDoppler        metrics.Series
	BERvsDopplerNoTrack metrics.Series
	// BERvsRicianK sweeps the Rician K-factor at fast fading: K→∞
	// recovers the static channel, K→0 is full Rayleigh.
	BERvsRicianK metrics.Series
	// BERvsInterfDuty sweeps a bursty narrowband interferer's duty
	// cycle.
	BERvsInterfDuty metrics.Series
	// BERvsDrift sweeps the carrier-frequency drift rate; the series X
	// axis is in µrad/sample² (the rad/sample² rates underflow the
	// 5-decimal series format).
	BERvsDrift metrics.Series
}

// harshSNR is the operating point of the suite: comfortably above the
// static-channel decode floor (Fig 5-3 shows ≈0 BER here), so every
// error the sweeps report is caused by the impairment, not by noise.
const harshSNR = 15.0

// HarshChannelSuite runs the harsh-channel sweeps at the given scale.
// Every point is a Monte-Carlo pair sweep on pooled sessions with
// splitmix per-trial seeding, so results are byte-identical at any
// Scale.Workers value (the determinism suite pins it). It is the k=2
// view of HarshChannelSuiteK and its output is byte-identical to the
// historical pairwise implementation.
func HarshChannelSuite(sc Scale, seed int64) HarshResult {
	return HarshChannelSuiteK(sc, seed, 2)
}

// HarshChannelSuiteK runs the same sweeps at collision order k: every
// trial collides k packets k times and decodes them jointly, so the
// suite explores collision order alongside channel severity (§7). k=2
// reproduces HarshChannelSuite exactly, series names included.
func HarshChannelSuiteK(sc Scale, seed int64, k int) HarshResult {
	return HarshFromCounts(HarshCounts(sc, seed, k, Shard{}))
}

// HarshCounts runs one shard of the harsh-channel suite at collision
// order k and returns the raw bit tallies: five series in HarshResult
// field order (Doppler tracking-on, Doppler tracking-off, Rician K,
// interferer duty, CFO drift). Shards from the same (sc, seed, k)
// merge with MergeCounts and render via HarshFromCounts.
func HarshCounts(sc Scale, seed int64, k int, sh Shard) []CountSeries {
	tag := ""
	if k != 2 {
		tag = fmt.Sprintf(" (k=%d)", k)
	}
	ds := CountSeries{Name: "Harsh: BER vs normalized Doppler — ZigZag (tracking on)" + tag}
	dsNo := CountSeries{Name: "Harsh: BER vs normalized Doppler — ZigZag (tracking off)" + tag}
	rk := CountSeries{Name: "Harsh: BER vs Rician K (Doppler 1e-3)" + tag}
	duty := CountSeries{Name: "Harsh: BER vs interferer duty cycle" + tag}
	drift := CountSeries{Name: "Harsh: BER vs CFO drift rate (µrad/sample²)" + tag}

	for i, fd := range []float64{0, 1e-4, 3e-4, 1e-3, 3e-3} {
		prof := impair.Profile{Doppler: fd}
		s := runner.TrialSeed(seed, 100+i)
		ds.Points = append(ds.Points, countPoint(fd, berHarshCounts(sc, s, prof, false, k, sh)))
		dsNo.Points = append(dsNo.Points, countPoint(fd, berHarshCounts(sc, s, prof, true, k, sh)))
	}
	for i, kf := range []float64{0, 1, 3, 10, 30} {
		prof := impair.Profile{Doppler: 1e-3, RicianK: kf}
		rk.Points = append(rk.Points, countPoint(kf, berHarshCounts(sc, runner.TrialSeed(seed, 200+i), prof, false, k, sh)))
	}
	for i, dc := range []float64{0, 0.05, 0.15, 0.3, 0.5} {
		prof := impair.Profile{InterfDuty: dc, InterfAmp: 0.6}
		duty.Points = append(duty.Points, countPoint(dc, berHarshCounts(sc, runner.TrialSeed(seed, 300+i), prof, false, k, sh)))
	}
	for i, rate := range []float64{0, 1e-7, 3e-7, 1e-6, 3e-6} {
		prof := impair.Profile{DriftRate: rate}
		drift.Points = append(drift.Points, countPoint(rate*1e6, berHarshCounts(sc, runner.TrialSeed(seed, 400+i), prof, false, k, sh)))
	}
	return []CountSeries{ds, dsNo, rk, duty, drift}
}

// HarshFromCounts renders merged harsh-suite tallies to the figure.
func HarshFromCounts(cs []CountSeries) HarshResult {
	return HarshResult{
		BERvsDoppler:        cs[0].series(),
		BERvsDopplerNoTrack: cs[1].series(),
		BERvsRicianK:        cs[2].series(),
		BERvsInterfDuty:     cs[3].series(),
		BERvsDrift:          cs[4].series(),
	}
}

// berHarshCounts measures ZigZag's BER at harshSNR under an impairment
// profile and collision order k: every trial renders k equal-power
// packets colliding k times and decodes the set jointly, and the result
// is the summed bit tallies of the shard's trials. noTrack runs the
// DisablePhaseTracking ablation. The chain seed is drawn from the trial
// stream before the scenario, so the only difference between profiles
// at one (seed, trial) is the impairment itself; at k=2 the rng stream
// is identical to the historical pairwise sweep (collisionSet pins it).
func berHarshCounts(sc Scale, seed int64, prof impair.Profile, noTrack bool, k int, sh Shard) bitCounts {
	cfg := core.DefaultConfig()
	cfg.PHY.DisablePhaseTracking = noTrack
	snrs := make([]float64, k)
	for i := range snrs {
		snrs[i] = harshSNR
	}
	return sumCounts(session.Map(cfg, sh.rangeOf(sc.Pairs), sc.Workers, seed, func(sess *session.Session, _ int) bitCounts {
		rng := sess.Rng
		chainSeed := rng.Int63()
		s := newPairScenario(sess, sc.Payload, snrs, 0.05)
		// As in berAtCounts: the offline decoder knows the fixed packet
		// size.
		for i := range s.metas {
			s.metas[i].BitLen = len(s.truth[i])
		}
		if !prof.Empty() {
			ch := s.impair.Get(prof)
			ch.Reset(chainSeed)
			sess.Air.Impair = ch
		}
		res, err := sess.Decode(s.metas, s.collisionSet(rng, k))
		return decodeTally(s.truth, res, err)
	}))
}
