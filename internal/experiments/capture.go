package experiments

import (
	"zigzag/internal/metrics"
	"zigzag/internal/runner"
	"zigzag/internal/session"
	"zigzag/internal/testbed"
)

// Fig54Result carries the capture-effect throughput sweep (Fig 5-4).
type Fig54Result struct {
	// Per scheme: Alice's, Bob's and the total normalized throughput as
	// a function of SINR = SNR_A − SNR_B.
	Alice map[string]metrics.Series
	Bob   map[string]metrics.Series
	Total map[string]metrics.Series
}

// Fig54CaptureSweep reproduces Fig 5-4: Alice moves closer to the AP
// (SINR grows), under ZigZag, current 802.11 and the Collision-Free
// Scheduler. The expected shapes: 802.11 starves both at SINR 0 and
// starves Bob at high SINR; the scheduler stays fair but flat; ZigZag
// matches the scheduler at SINR 0, and once capture allows single-
// collision interference cancellation the total approaches 2×, until
// Alice's power buries Bob entirely.
func Fig54CaptureSweep(sc Scale, seed int64) Fig54Result {
	out := Fig54Result{
		Alice: map[string]metrics.Series{},
		Bob:   map[string]metrics.Series{},
		Total: map[string]metrics.Series{},
	}
	schemes := []testbed.Scheme{testbed.ZigZag, testbed.Current80211, testbed.CollisionFree}
	sinrs := []float64{0, 2, 4, 6, 8, 10, 12, 14, 16}
	const snrB = 12.0
	// Every (scheme, SINR) cell is an independent run whose seed depends
	// only on the SINR, exactly as the serial sweep had it; the grid
	// flattens into one trial per cell (each on its worker's pooled
	// session) and reduces in grid order.
	cells := session.Map(testbed.RunConfig{}.CoreConfig(), runner.Batch{Hi: len(schemes) * len(sinrs)}, sc.Workers, seed,
		func(sess *session.Session, cell int) testbed.RunResult {
			scheme, sinr := schemes[cell/len(sinrs)], sinrs[cell%len(sinrs)]
			cfg := testbed.HiddenPairConfig(snrB+sinr, snrB, testbed.FullyHidden,
				sc.Packets, sc.TestbedPayload, 0.05, seed+int64(sinr*10))
			cfg.Saturated = true // the paper's senders transmit at full speed
			cfg.Workers = 1
			return testbed.RunWith(sess, cfg, scheme)
		})
	for si, scheme := range schemes {
		a := metrics.Series{Name: "Fig 5-4a Alice throughput — " + scheme.String()}
		b := metrics.Series{Name: "Fig 5-4b Bob throughput — " + scheme.String()}
		tt := metrics.Series{Name: "Fig 5-4c total throughput — " + scheme.String()}
		for xi, sinr := range sinrs {
			res := cells[si*len(sinrs)+xi]
			a.Points = append(a.Points, metrics.Point{X: sinr, Y: res.Flows[0].Throughput})
			b.Points = append(b.Points, metrics.Point{X: sinr, Y: res.Flows[1].Throughput})
			tt.Points = append(tt.Points, metrics.Point{X: sinr, Y: res.AggregateThroughput()})
		}
		out.Alice[scheme.String()] = a
		out.Bob[scheme.String()] = b
		out.Total[scheme.String()] = tt
	}
	return out
}
