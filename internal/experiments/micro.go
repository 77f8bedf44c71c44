package experiments

import (
	"fmt"
	"math/cmplx"
	"math/rand"

	"zigzag/internal/bitutil"
	"zigzag/internal/core"
	"zigzag/internal/dsp"
	"zigzag/internal/metrics"
	"zigzag/internal/modem"
	"zigzag/internal/phy"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// Fig42CorrelationProfile reproduces Fig 4-2: the magnitude of the
// frequency-compensated preamble correlation across a collision, spiking
// at the second packet's start.
func Fig42CorrelationProfile(seed int64) (metrics.Series, int) {
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	sess := session.New(cfg)
	sess.ResetRand(rng)
	s := newPairScenario(sess, 300, []float64{17, 17}, 0.05)
	const offB = 40 + 1100
	rec := s.reception(rng, []int{40, offB})
	prof := sess.Sync.Profile(rec.Samples, s.metas[1].Freq)
	out := metrics.Series{Name: "Fig 4-2: |correlation| vs position"}
	for i := 0; i < len(prof); i++ {
		out.Points = append(out.Points, metrics.Point{X: float64(i), Y: cmplx.Abs(prof[i])})
	}
	return out, offB
}

// Fig44Result summarizes the error-propagation experiment.
type Fig44Result struct {
	Series metrics.Series
	// PropagationProbability is the measured per-step survival
	// probability; the paper derives ≤ 1/6 for BPSK (§4.3a).
	PropagationProbability float64
}

// Fig44ErrorDecay reproduces Fig 4-4's claim that decoding errors decay
// exponentially. Under the paper's worst-case model (the AP adds YA
// instead of subtracting, so the estimate becomes YB + 2·YA with equal
// amplitudes and a uniform relative phase), a BPSK flip needs
// 1 + 2·cos(φ) < 0, i.e. φ within 60° of opposition — an arc of 120°,
// so the measured propagation probability is 1/3 per chunk. (The paper
// quotes 1/6 from the same geometry. Either constant gives the
// figure's message: error runs die exponentially fast.)
//
// Individual draws are sub-microsecond, so the worker pool maps over
// fixed-size batches of them; workers is the pool size (0 = GOMAXPROCS).
func Fig44ErrorDecay(trials int, seed int64, workers int) Fig44Result {
	if trials <= 0 {
		trials = 200000
	}
	// Worst case per §4.3a: the AP adds YA instead of subtracting, so
	// the estimate of YB becomes YB + 2·YA. A BPSK flip needs the
	// perturbed vector to cross the decision boundary, which for equal
	// amplitudes happens iff the angle between YB and YA is within 60°
	// of π (the vectors oppose within 60°).
	type tally struct {
		propagate int
		runLens   [32]int // run length capped at 30 by the inner loop
	}
	batches := runner.Batches(trials, 8192)
	opts := runner.Options{Workers: workers, BaseSeed: seed}
	tallies := runner.Map(runner.Batch{Hi: len(batches)}, opts, nil, nil, func(_ struct{}, bi int, rng *rand.Rand) tally {
		var t tally
		for i := batches[bi].Lo; i < batches[bi].Hi; i++ {
			run := 0
			for {
				phiA := rng.Float64() * 2 * 3.141592653589793
				// YB = +1 (real); YA random phase, equal magnitude.
				yb := complex(1, 0)
				ya := cmplx.Rect(1, phiA)
				est := yb + 2*ya
				if real(est) >= 0 {
					break // decision survives: error died
				}
				run++
				if run > 30 {
					break
				}
			}
			t.runLens[run]++
			if run > 0 {
				t.propagate++
			}
		}
		return t
	})
	propagate := 0
	runLens := map[int]int{}
	for _, t := range tallies {
		propagate += t.propagate
		for l, c := range t.runLens {
			if c > 0 {
				runLens[l] += c
			}
		}
	}
	res := Fig44Result{PropagationProbability: float64(propagate) / float64(trials)}
	res.Series = metrics.Series{Name: "Fig 4-4: P(error survives k chunks)"}
	for k := 0; k <= 6; k++ {
		surviving := 0
		for l, c := range runLens {
			if l >= k {
				surviving += c
			}
		}
		res.Series.Points = append(res.Series.Points, metrics.Point{X: float64(k), Y: float64(surviving) / float64(trials)})
	}
	return res
}

// Table51Result carries the micro-evaluation numbers (Table 5.1).
type Table51Result struct {
	Table metrics.Table

	FalsePositiveRate float64
	FalseNegativeRate float64

	TrackingSuccess800  float64
	TrackingSuccess1500 float64
	NoTracking800       float64
	NoTracking1500      float64

	ISISuccess10dB   float64
	ISISuccess20dB   float64
	NoISISuccess10dB float64
	NoISISuccess20dB float64
}

// Table51MicroEval reproduces Table 5.1: the correlation detector's
// false positive/negative rates, decoding success with and without
// frequency/phase tracking for 800 B and 1500 B packets, and with and
// without the ISI re-encoding filter at 10 and 20 dB.
func Table51MicroEval(sc Scale, seed int64) Table51Result {
	var res Table51Result
	res.FalsePositiveRate, res.FalseNegativeRate = correlationRates(sc, seed)
	res.TrackingSuccess800 = trackingSuccess(sc, seed+1, 800, false)
	res.NoTracking800 = trackingSuccess(sc, seed+1, 800, true)
	res.TrackingSuccess1500 = trackingSuccess(sc, seed+2, 1500, false)
	res.NoTracking1500 = trackingSuccess(sc, seed+2, 1500, true)
	res.ISISuccess10dB = isiSuccess(sc, seed+3, 10, false)
	res.NoISISuccess10dB = isiSuccess(sc, seed+3, 10, true)
	res.ISISuccess20dB = isiSuccess(sc, seed+4, 20, false)
	res.NoISISuccess20dB = isiSuccess(sc, seed+4, 20, true)

	t := metrics.Table{
		Title:   "Table 5.1 — Micro-Evaluation of ZigZag's components",
		Headers: []string{"component", "condition", "value"},
	}
	pc := func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
	t.AddRow("Correlation", "False Positives", pc(res.FalsePositiveRate))
	t.AddRow("Correlation", "False Negatives", pc(res.FalseNegativeRate))
	t.AddRow("Freq & Phase Tracking", "success with, 800B", pc(res.TrackingSuccess800))
	t.AddRow("Freq & Phase Tracking", "success with, 1500B", pc(res.TrackingSuccess1500))
	t.AddRow("Freq & Phase Tracking", "success without, 800B", pc(res.NoTracking800))
	t.AddRow("Freq & Phase Tracking", "success without, 1500B", pc(res.NoTracking1500))
	t.AddRow("ISI Filter", "success with, 10dB", pc(res.ISISuccess10dB))
	t.AddRow("ISI Filter", "success with, 20dB", pc(res.ISISuccess20dB))
	t.AddRow("ISI Filter", "success without, 10dB", pc(res.NoISISuccess10dB))
	t.AddRow("ISI Filter", "success without, 20dB", pc(res.NoISISuccess20dB))
	res.Table = t
	return res
}

// correlationRates measures the collision detector (§5.3a): false
// positives on clean packets, false negatives on collisions, across SNRs
// 6–20 dB. The SNR×pair grid flattens into one trial per cell.
func correlationRates(sc Scale, seed int64) (fp, fn float64) {
	cfg := core.DefaultConfig()
	snrs := []float64{6, 10, 14, 20}
	type rates struct{ fp, fn int }
	cells := session.Map(cfg, runner.Batch{Hi: len(snrs) * sc.Pairs}, sc.Workers, seed, func(sess *session.Session, trial int) rates {
		rng := sess.Rng
		var r rates
		snr := snrs[trial/sc.Pairs]
		sy := sess.Sync
		noise := 0.05
		s := newPairScenario(sess, sc.Payload, []float64{snr, snr}, noise)
		// Clean packet: an accepted peak anywhere but the packet's own
		// start is a false positive ("packets mistaken as
		// collisions", §5.3a).
		clean := s.reception(rng, []int{40, -1})
		amp1 := s.links[1].Amplitude()
		peaks := sy.DetectFor(clean.Samples, s.metas[1].Freq, core.DetectBeta, amp1)
		for _, p := range filterPlausible(peaks, amp1) {
			if p.RefPos > 40+32 || p.RefPos < 40-32 {
				r.fp = 1
				break
			}
		}
		// Collision: missing the second packet's peak is a false
		// negative.
		coll := s.reception(rng, []int{40, 40 + 600})
		peaks = sy.DetectFor(coll.Samples, s.metas[1].Freq, core.DetectBeta, amp1)
		found := false
		for _, p := range filterPlausible(peaks, amp1) {
			if p.RefPos > 40+32 {
				found = true
			}
		}
		if !found {
			r.fn = 1
		}
		return r
	})
	nFP, nFN, total := 0, 0, 0
	for _, r := range cells {
		nFP += r.fp
		nFN += r.fn
		total++
	}
	return float64(nFP) / float64(total), float64(nFN) / float64(total)
}

// filterPlausible applies the receiver's two-sided amplitude sanity
// bound.
func filterPlausible(peaks []phy.Sync, amp float64) []phy.Sync {
	out := peaks[:0]
	maxMag := 2.5 * amp * 64
	for _, p := range peaks {
		if p.Mag <= maxMag {
			out = append(out, p)
		}
	}
	return out
}

// trackingSuccess measures the fraction of colliding packets decodable
// with/without frequency & phase tracking (Table 5.1 row 2, §5.3b).
func trackingSuccess(sc Scale, seed int64, payload int, disable bool) float64 {
	cfg := core.DefaultConfig()
	cfg.PHY.DisablePhaseTracking = disable
	pairs := sc.Pairs
	if floor := sc.statFloor(10); pairs < floor {
		pairs = floor
	}
	if payload >= 1500 && pairs > sc.statFloor(12) {
		pairs = sc.statFloor(12) // long packets dominate runtime
	}
	return successRate(successCounts(cfg, pairs, sc.Workers, seed, func(sess *session.Session) *pairScenario {
		return newPairScenario(sess, payload, []float64{18, 18}, 0.02)
	}))
}

// okTotal accumulates a trial's decode-success tally.
type okTotal struct{ ok, total int }

// successCounts runs decode-success trials on a pool of workers: each
// trial builds a scenario on its worker's pooled session, decodes its
// collision pair, and reports how many of the two packets met the §5.1f
// criterion.
func successCounts(cfg core.Config, pairs, workers int, seed int64, scenario func(sess *session.Session) *pairScenario) []okTotal {
	return session.Map(cfg, runner.Batch{Hi: pairs}, workers, seed, func(sess *session.Session, _ int) okTotal {
		var c okTotal
		s := scenario(sess)
		r1, r2 := s.collisionPair(sess.Rng)
		res, err := sess.Decode(s.metas, s.pair(r1, r2))
		if err != nil {
			c.total = 2
			return c
		}
		for i := range res.Packets {
			c.total++
			if decodable(s.truth[i], res.Packets[i].Bits) {
				c.ok++
			}
		}
		return c
	})
}

func successRate(counts []okTotal) float64 {
	ok, total := 0, 0
	for _, c := range counts {
		ok += c.ok
		total += c.total
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// decodable applies the paper's criterion (§5.1f): a packet counts as
// correctly received when its uncoded BER is below 10⁻³.
func decodable(truth, got []byte) bool {
	return bitutil.BitErrorRate(truth, got) < metrics.MaxAcceptableBER
}

// isiSuccess measures decode success with/without the re-encoding ISI
// filter at a given SNR (Table 5.1 row 3, §5.3c).
func isiSuccess(sc Scale, seed int64, snr float64, disable bool) float64 {
	cfg := core.DefaultConfig()
	cfg.PHY.DisableISIModel = disable
	pairs := sc.Pairs
	if floor := sc.statFloor(24); pairs < floor {
		pairs = floor // keep the on/off comparison statistically stable
	}
	strongISI := typicalStrongISI() // shared read-only across trials
	return successRate(successCounts(cfg, pairs, sc.Workers, seed, func(sess *session.Session) *pairScenario {
		s := newPairScenario(sess, sc.Payload, []float64{snr, snr}, 0.05)
		// Strong testbed-like ISI makes the reconstruction filter
		// matter.
		for _, l := range s.links {
			l.ISI = strongISI
		}
		return s
	}))
}

func typicalStrongISI() dsp.FIR {
	return dsp.NewFIR([]complex128{0.18 + 0.06i, 1, 0.33 - 0.09i})
}

// Fig52aResult is the residual-frequency-offset error distribution.
type Fig52aResult struct {
	Series metrics.Series
	// EarlyBER and LateBER compare the first and last fifth of the
	// packet: without tracking, errors accumulate toward the end
	// (Fig 5-2a).
	EarlyBER, LateBER float64
}

// Fig52aResidualOffsetErrors decodes one long collision pair with
// tracking disabled and reports the bit error rate per position decile.
func Fig52aResidualOffsetErrors(seed int64) Fig52aResult {
	cfg := core.DefaultConfig()
	cfg.PHY.DisablePhaseTracking = true
	rng := rand.New(rand.NewSource(seed))
	sess := session.New(cfg)
	sess.ResetRand(rng)
	s := newPairScenario(sess, 1500, []float64{18, 18}, 0.02)
	r1, r2 := s.collisionPair(rng)
	res, err := sess.Decode(s.metas, s.pair(r1, r2))
	out := Fig52aResult{Series: metrics.Series{Name: "Fig 5-2a: BER vs bit index (tracking off)"}}
	if err != nil {
		return out
	}
	bits := res.Packets[0].Bits
	truth := s.truth[0]
	if len(bits) == 0 {
		return out
	}
	n := len(truth)
	if len(bits) < n {
		n = len(bits)
	}
	const buckets = 20
	for b := 0; b < buckets; b++ {
		lo, hi := b*n/buckets, (b+1)*n/buckets
		errs := 0
		for i := lo; i < hi; i++ {
			if truth[i] != bits[i] {
				errs++
			}
		}
		ber := float64(errs) / float64(hi-lo)
		out.Series.Points = append(out.Series.Points, metrics.Point{X: float64(lo), Y: ber})
	}
	fifth := n / 5
	out.EarlyBER = bitutil.BitErrorRate(truth[:fifth], bits[:fifth])
	out.LateBER = bitutil.BitErrorRate(truth[n-fifth:n], bits[n-fifth:n])
	return out
}

// Fig52bISISymbols renders the ISI-distorted received constellation
// values for a run of BPSK bits (Fig 5-2b): the received value of a bit
// depends on its neighbours.
func Fig52bISISymbols(seed int64) metrics.Series {
	cfg := phy.Default()
	rng := rand.New(rand.NewSource(seed))
	bits := make([]byte, 48)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	syms := modem.Modulate(nil, modem.BPSK, bits)
	wave := modem.Upsample(nil, syms, cfg.SamplesPerSymbol)
	ch := typicalStrongISI()
	rx := ch.Apply(nil, wave)
	out := metrics.Series{Name: "Fig 5-2b: ISI-distorted received BPSK values"}
	for k := range syms {
		v := (rx[2*k] + rx[2*k+1]) / 2
		out.Points = append(out.Points, metrics.Point{X: float64(k), Y: real(v)})
	}
	return out
}
