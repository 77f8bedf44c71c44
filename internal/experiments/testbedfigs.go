package experiments

import (
	"math/rand"

	"zigzag/internal/metrics"
	"zigzag/internal/runner"
	"zigzag/internal/session"
	"zigzag/internal/testbed"
)

// TestbedResult aggregates the whole-testbed comparison that Figs 5-5
// through 5-8 are drawn from: every sampled sender pair is run under
// both ZigZag and current 802.11 with identical seeds.
type TestbedResult struct {
	// CDFs over sampled pairs/flows.
	ThroughputZigZag metrics.Sample // aggregate per pair (Fig 5-5)
	Throughput80211  metrics.Sample
	LossZigZag       metrics.Sample // per flow (Fig 5-6)
	Loss80211        metrics.Sample
	HiddenLossZigZag metrics.Sample // flows of hidden/partial pairs (Fig 5-8)
	HiddenLoss80211  metrics.Sample

	// Scatter holds (802.11, ZigZag) throughput per flow (Fig 5-7).
	Scatter []metrics.Point

	// Headline numbers the paper quotes.
	MeanThroughputGain float64 // paper: +31%
	MeanLossZigZag     float64 // paper: 0.2%
	MeanLoss80211      float64 // paper: 18.9%
	HiddenMeanZigZag   float64 // paper: 0.7%
	HiddenMean80211    float64 // paper: 82.3%
}

// RunTestbed samples sender pairs from the default 14-node topology,
// picks a random reachable AP for each, and runs both receiver designs
// over the same MAC schedule seeds (§5.6's methodology).
func RunTestbed(sc Scale, seed int64) TestbedResult {
	top := testbed.DefaultTopology()
	rng := rand.New(rand.NewSource(seed))
	var out TestbedResult

	type pair struct{ i, j, ap int }
	var pairs []pair
	n := len(top.Nodes)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			aps := top.ReachableAPs(i, j)
			if len(aps) == 0 {
				continue
			}
			pairs = append(pairs, pair{i, j, aps[rng.Intn(len(aps))]})
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	if len(pairs) > sc.TestbedPairs {
		// Keep every hidden/partial pair (they are the point of the
		// paper), fill the rest with mutual-sensing pairs.
		var kept, mutual []pair
		for _, p := range pairs {
			if top.Classify(p.i, p.j) == testbed.MutualSensing {
				mutual = append(mutual, p)
			} else {
				kept = append(kept, p)
			}
		}
		for _, p := range mutual {
			if len(kept) >= sc.TestbedPairs {
				break
			}
			kept = append(kept, p)
		}
		pairs = kept
	}

	// Every sampled pair is an independent simulation whose seed is
	// already derived from the pair index, so pairs fan out across the
	// worker pool — each worker driving its pooled session — and the
	// serial reduction below sees them in pair order: identical output
	// at any worker count.
	type pairOutcome struct {
		kind    testbed.PairKind
		zz, std testbed.RunResult
	}
	outcomes := session.Map(testbed.RunConfig{}.CoreConfig(), runner.Batch{Hi: len(pairs)}, sc.Workers, seed,
		func(sess *session.Session, pi int) pairOutcome {
			p := pairs[pi]
			cfg := testbed.RunConfig{
				SNRs: []float64{
					testbed.ClampSNR(top.SNR[p.ap][p.i]),
					testbed.ClampSNR(top.SNR[p.ap][p.j]),
				},
				Senses: [][]bool{
					{true, top.Senses[p.i][p.j]},
					{top.Senses[p.j][p.i], true},
				},
				Packets: sc.Packets,
				Payload: sc.TestbedPayload,
				Noise:   0.05,
				Seed:    seed + int64(pi)*101,
				Workers: 1, // pair-level parallelism already saturates the pool
			}
			return pairOutcome{
				kind: top.Classify(p.i, p.j),
				zz:   testbed.RunWith(sess, cfg, testbed.ZigZag),
				std:  testbed.RunWith(sess, cfg, testbed.Current80211),
			}
		})

	for _, oc := range outcomes {
		kind, zz, std := oc.kind, oc.zz, oc.std
		out.ThroughputZigZag.Add(zz.AggregateThroughput())
		out.Throughput80211.Add(std.AggregateThroughput())
		for f := 0; f < 2; f++ {
			lz := zz.Flows[f].Stats.LossRate()
			ls := std.Flows[f].Stats.LossRate()
			out.LossZigZag.Add(lz)
			out.Loss80211.Add(ls)
			out.Scatter = append(out.Scatter, metrics.Point{
				X: std.Flows[f].Throughput,
				Y: zz.Flows[f].Throughput,
			})
			if kind != testbed.MutualSensing {
				out.HiddenLossZigZag.Add(lz)
				out.HiddenLoss80211.Add(ls)
			}
		}
	}

	if m := out.Throughput80211.Mean(); m > 0 {
		out.MeanThroughputGain = out.ThroughputZigZag.Mean()/m - 1
	}
	out.MeanLossZigZag = out.LossZigZag.Mean()
	out.MeanLoss80211 = out.Loss80211.Mean()
	out.HiddenMeanZigZag = out.HiddenLossZigZag.Mean()
	out.HiddenMean80211 = out.HiddenLoss80211.Mean()
	return out
}

// Fig59Result is the three-hidden-terminal throughput distribution.
type Fig59Result struct {
	CDF metrics.Sample
	// FairnessSpread is max−min mean throughput across the three
	// senders; the paper reports all three near 1/3 of the medium.
	FairnessSpread float64
	MeanPerSender  [3]float64
}

// Fig59ThreeHiddenTerminals runs three mutually hidden senders against
// one AP under ZigZag and collects each sender's normalized throughput
// (Fig 5-9).
func Fig59ThreeHiddenTerminals(sc Scale, seed int64) Fig59Result {
	var out Fig59Result
	senses := [][]bool{
		{true, false, false},
		{false, true, false},
		{false, false, true},
	}
	var sums [3]float64
	runs := maxInt(2, sc.TestbedPairs/3)
	results := session.Map(testbed.RunConfig{}.CoreConfig(), runner.Batch{Hi: runs}, sc.Workers, seed,
		func(sess *session.Session, r int) testbed.RunResult {
			cfg := testbed.RunConfig{
				SNRs:    []float64{13, 13, 13},
				Senses:  senses,
				Packets: sc.Packets,
				Payload: sc.TestbedPayload,
				Noise:   0.05,
				Seed:    seed + int64(r)*31,
				Workers: 1,
			}
			return testbed.RunWith(sess, cfg, testbed.ZigZag)
		})
	for _, res := range results {
		for f := 0; f < 3; f++ {
			th := res.Flows[f].Throughput
			out.CDF.Add(th)
			sums[f] += th
		}
	}
	lo, hi := 1e9, -1e9
	for f := 0; f < 3; f++ {
		out.MeanPerSender[f] = sums[f] / float64(runs)
		if out.MeanPerSender[f] < lo {
			lo = out.MeanPerSender[f]
		}
		if out.MeanPerSender[f] > hi {
			hi = out.MeanPerSender[f]
		}
	}
	out.FairnessSpread = hi - lo
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
