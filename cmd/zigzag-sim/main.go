// Command zigzag-sim runs a hidden-terminal flow simulation and reports
// per-sender throughput and loss under a chosen receiver design.
//
// Usage:
//
//	zigzag-sim [-scheme zigzag|802.11|cf] [-snra 13] [-snrb 13]
//	           [-kind hidden|partial|mutual] [-packets 20]
//	           [-payload 400] [-seed 1] [-senders 2] [-k 0] [-workers 0]
//	           [-doppler 0] [-rician-k 0] [-coherence-block 0]
//	           [-mp-doppler 0] [-drift 0] [-phase-noise 0]
//	           [-interf-duty 0] [-interf-amp 1] [-adc-bits 0]
//
// -workers sizes the worker pool for the run's parallel sections (the
// collision-free scheduler's independent slots; 0 = all cores). Results
// are bit-identical at any worker count.
//
// The impairment flags enable the time-varying channel engine
// (internal/impair) on every reception of the run: Rayleigh/Rician
// fading at the given normalized Doppler, time-varying multipath, CFO
// drift and phase noise, a bursty narrowband interferer, and ADC
// clipping/quantization. With none set (a zero impair.Profile) the run
// is the static paper channel, byte-identical to pre-impair builds.
//
// With -senders 3 or 4 the stations are mutually hidden (-senders 3 is
// the Fig 5-9 scenario); collisions of that order resolve through the
// generalized k-way SIC framework (§7). -k is an alias for -senders —
// the collision order.
package main

import (
	"flag"
	"fmt"
	"os"

	"zigzag/internal/impair"
	"zigzag/internal/testbed"
)

func main() {
	schemeName := flag.String("scheme", "zigzag", "zigzag|802.11|cf")
	snrA := flag.Float64("snra", 13, "sender A SNR at the AP (dB)")
	snrB := flag.Float64("snrb", 13, "sender B SNR at the AP (dB)")
	kindName := flag.String("kind", "hidden", "hidden|partial|mutual sensing between senders")
	packets := flag.Int("packets", 20, "packets per sender")
	payload := flag.Int("payload", 400, "payload bytes")
	seed := flag.Int64("seed", 1, "RNG seed")
	senders := flag.Int("senders", 2, "2, 3 or 4 senders")
	kOrder := flag.Int("k", 0, "collision order — alias for -senders (0 defers to -senders)")
	workers := flag.Int("workers", 0, "trial worker pool size (0 = all cores)")
	doppler := flag.Float64("doppler", 0, "Rayleigh/Rician fading normalized Doppler f_d·T (0 = no fading)")
	ricianK := flag.Float64("rician-k", 0, "Rician K-factor for the fading model (0 = Rayleigh)")
	coherenceBlock := flag.Int("coherence-block", 0, "hold the fading gain constant over blocks of this many samples")
	mpDoppler := flag.Float64("mp-doppler", 0, "time-varying three-tap multipath fading rate (0 = off)")
	drift := flag.Float64("drift", 0, "carrier-frequency drift in rad/sample² (0 = off)")
	phaseNoise := flag.Float64("phase-noise", 0, "phase-noise random-walk std in rad/√sample (0 = off)")
	interfDuty := flag.Float64("interf-duty", 0, "bursty narrowband interferer duty cycle in (0,1) (0 = off)")
	interfAmp := flag.Float64("interf-amp", 1, "interferer tone amplitude (0 silences the interferer)")
	adcBits := flag.Int("adc-bits", 0, "ADC bits per rail for front-end clipping/quantization (0 = off)")
	flag.Parse()
	if *kOrder != 0 {
		*senders = *kOrder
	}
	prof := impair.Profile{
		Doppler:          *doppler,
		RicianK:          *ricianK,
		CoherenceBlock:   *coherenceBlock,
		MultipathDoppler: *mpDoppler,
		DriftRate:        *drift,
		PhaseNoise:       *phaseNoise,
		InterfDuty:       *interfDuty,
		ADCBits:          *adcBits,
	}
	prof.InterfAmp = *interfAmp
	if *interfAmp == 0 {
		// An explicit -interf-amp 0 means a silent interferer, i.e. none;
		// Profile treats a zero amplitude as "use the default 1.0", so
		// translate silence into duty 0 here.
		prof.InterfDuty = 0
	}

	var scheme testbed.Scheme
	switch *schemeName {
	case "zigzag":
		scheme = testbed.ZigZag
	case "802.11":
		scheme = testbed.Current80211
	case "cf":
		scheme = testbed.CollisionFree
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *schemeName)
		os.Exit(2)
	}
	var kind testbed.PairKind
	switch *kindName {
	case "hidden":
		kind = testbed.FullyHidden
	case "partial":
		kind = testbed.PartialHidden
	case "mutual":
		kind = testbed.MutualSensing
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kindName)
		os.Exit(2)
	}

	var cfg testbed.RunConfig
	switch *senders {
	case 2:
		cfg = testbed.HiddenPairConfig(*snrA, *snrB, kind, *packets, *payload, 0.05, *seed)
	case 3, 4:
		// Mutually hidden stations: A and B at their flag SNRs, any
		// further stations at the mean (-senders 3 stays the historical
		// Fig 5-9 configuration).
		snrs := []float64{*snrA, *snrB}
		for i := 2; i < *senders; i++ {
			snrs = append(snrs, (*snrA+*snrB)/2)
		}
		senses := make([][]bool, *senders)
		for i := range senses {
			senses[i] = make([]bool, *senders)
			senses[i][i] = true
		}
		cfg = testbed.RunConfig{
			SNRs:    snrs,
			Senses:  senses,
			Packets: *packets,
			Payload: *payload,
			Noise:   0.05,
			Seed:    *seed,
		}
	default:
		fmt.Fprintln(os.Stderr, "-senders must be 2, 3 or 4")
		os.Exit(2)
	}

	cfg.Workers = *workers
	cfg.Impair = prof
	res := testbed.Run(cfg, scheme)
	fmt.Printf("scheme=%s senders=%d payload=%dB packets=%d kind=%s\n",
		scheme, *senders, *payload, *packets, *kindName)
	if !prof.Empty() {
		// Only printed in harsh-channel mode, keeping the default
		// output byte-identical to pre-impair builds.
		fmt.Printf("impairments: %s\n", prof)
	}
	fmt.Printf("elapsed %v over %d episodes (%d collisions)\n",
		res.Elapsed.Round(1e6), res.Episodes, res.Collisions)
	for _, f := range res.Flows {
		fmt.Printf("  sender %d: delivered %3d/%3d  loss %5.1f%%  throughput %.3f\n",
			f.Sender, f.Stats.Delivered, f.Stats.Sent, f.Stats.LossRate()*100, f.Throughput)
	}
	fmt.Printf("aggregate normalized throughput: %.3f\n", res.AggregateThroughput())
}
