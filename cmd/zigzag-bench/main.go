// Command zigzag-bench regenerates the paper's tables and figures as
// text series/tables on stdout.
//
// Usage:
//
//	zigzag-bench [-exp all|fig4-2|fig4-4|lemma4-4-1|fig4-7a|fig4-7b|
//	              table5-1|fig5-2a|fig5-2b|fig5-3|fig5-4|fig5-5|fig5-9|
//	              harsh|kway]
//	             [-scale quick|full] [-seed N] [-workers N] [-k N]
//	             [-shards N -shard i [-shard-out FILE]] [-merge F1,F2,...]
//
// -workers sizes the worker pool that Monte-Carlo trials fan out across
// (0 = all cores); per-trial seed derivation keeps every figure
// bit-identical at any worker count, so -workers only changes the
// wall-clock.
//
// "harsh" is the time-varying-channel suite (internal/impair): BER of
// jointly decoded collision pairs vs Doppler (with the phase-tracking
// ablation), Rician K, interferer duty cycle, and CFO drift rate. -k
// raises the suite's collision order: k packets colliding k times per
// trial through the generalized SIC path (§7); k=2 is the historical
// pairwise suite, byte-identical.
//
// "kway" is the collision-order sweep: joint-decode BER at k = 2, 3, 4
// on the static channel and under mild fading.
//
// The counting sweeps (fig5-3, harsh, kway) shard: -shards N -shard i
// runs one contiguous slice of the trial space and writes a mergeable
// JSON partial; -merge folds partials and renders stdout
// byte-identical to the unsharded run, at any shard split and worker
// count.
//
// Every output block is labelled with the paper artifact it reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"zigzag/internal/experiments"
	"zigzag/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:])) }

// run executes the command line args and returns the exit code: 2 for
// bad flags, among them an unknown -scale and a -shard outside
// [0, -shards).
func run(args []string) int {
	fs := flag.NewFlagSet("zigzag-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run (see -h)")
	scaleName := fs.String("scale", "quick", "quick|full")
	seed := fs.Int64("seed", 1, "root RNG seed")
	workers := fs.Int("workers", 0, "trial worker pool size (0 = all cores)")
	kOrder := fs.Int("k", 2, "collision order for the harsh suite (2-4): k packets colliding k times per trial")
	shards := fs.Int("shards", 1, "split the experiment's trial space into N shards (fig5-3, harsh, kway)")
	shard := fs.Int("shard", 0, "with -shards: which shard THIS process runs (0-based)")
	shardOut := fs.String("shard-out", "", "with -shards: write the mergeable shard partial JSON here (default stdout)")
	mergeList := fs.String("merge", "", "comma-separated shard partial files to merge and render (replaces running)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *kOrder < 2 || *kOrder > 4 {
		fmt.Fprintln(os.Stderr, "-k must be 2, 3 or 4")
		return 2
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "-shards must be at least 1")
		return 2
	}
	if *shard < 0 || *shard >= *shards {
		fmt.Fprintf(os.Stderr, "-shard %d out of range for -shards %d\n", *shard, *shards)
		return 2
	}
	var sc experiments.Scale
	switch *scaleName {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "-scale must be quick or full, not %q\n", *scaleName)
		return 2
	}
	if *mergeList != "" {
		return runMerge(*mergeList)
	}
	sc.Workers = *workers

	// A split writes a partial even when it comes out as one shard.
	if *shards > 1 || *shardOut != "" {
		return runShard(*exp, *scaleName, sc, *seed, *kOrder, *shards, *shard, *shardOut)
	}

	runners := []struct {
		name string
		run  func()
	}{
		{"fig4-2", func() { fig42(*seed) }},
		{"fig4-4", func() { fig44(sc, *seed) }},
		{"lemma4-4-1", func() { lemma441(sc, *seed) }},
		{"fig4-7a", func() { fig47(sc, *seed, true) }},
		{"fig4-7b", func() { fig47(sc, *seed, false) }},
		{"table5-1", func() { table51(sc, *seed) }},
		{"fig5-2a", func() { fig52a(*seed) }},
		{"fig5-2b", func() { fig52b(*seed) }},
		{"fig5-3", func() { fig53(sc, *seed) }},
		{"fig5-4", func() { fig54(sc, *seed) }},
		{"fig5-5", func() { testbedFigs(sc, *seed) }},
		{"fig5-9", func() { fig59(sc, *seed) }},
		{"harsh", func() { harsh(sc, *seed, *kOrder) }},
		{"kway", func() { kway(sc, *seed) }},
	}
	ran := false
	for _, r := range runners {
		if *exp == "all" || *exp == r.name {
			fmt.Printf("==================== %s ====================\n", r.name)
			r.run()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}

func fig42(seed int64) {
	series, offB := experiments.Fig42CorrelationProfile(seed + 1)
	// Downsample for readability; keep the spike region dense.
	out := metrics.Series{Name: series.Name}
	for i, p := range series.Points {
		if i%16 == 0 || (int(p.X) > offB-8 && int(p.X) < offB+8) {
			out.Points = append(out.Points, p)
		}
	}
	fmt.Print(out.Format())
	fmt.Printf("# second packet starts at sample %d (spike expected there)\n", offB)
}

func fig44(sc experiments.Scale, seed int64) {
	res := experiments.Fig44ErrorDecay(sc.Trials*20, seed, sc.Workers)
	fmt.Print(res.Series.Format())
	fmt.Printf("# measured propagation probability: %.4f (worst-case BPSK model; paper quotes 1/6 from the same geometry)\n",
		res.PropagationProbability)
}

func lemma441(sc experiments.Scale, seed int64) {
	res := experiments.Lemma441AckProbability(sc.Trials*10, seed, sc.Workers)
	fmt.Print(res.Table.Format())
}

func fig47(sc experiments.Scale, seed int64, fixed bool) {
	if fixed {
		for _, s := range experiments.Fig47FixedOnly(sc, seed).FixedCW {
			fmt.Print(s.Format())
		}
		return
	}
	fmt.Print(experiments.Fig47ExpOnly(sc, seed).Exponential.Format())
}

func table51(sc experiments.Scale, seed int64) {
	res := experiments.Table51MicroEval(sc, seed)
	fmt.Print(res.Table.Format())
	fmt.Println("# paper: FP 3.1%, FN 1.9%; tracking 99.6/98.2% with vs 89/0% without;")
	fmt.Println("# ISI filter 99.6/100% with vs 47/96% without (10/20 dB)")
}

func fig52a(seed int64) {
	res := experiments.Fig52aResidualOffsetErrors(seed + 6)
	fmt.Print(res.Series.Format())
	fmt.Printf("# early-fifth BER %.4f vs late-fifth BER %.4f (errors accumulate without tracking)\n",
		res.EarlyBER, res.LateBER)
}

func fig52b(seed int64) {
	fmt.Print(experiments.Fig52bISISymbols(seed + 7).Format())
}

func fig53(sc experiments.Scale, seed int64) {
	printFig53(experiments.Fig53BERvsSNR(sc, seed))
}

func printFig53(res experiments.Fig53Result) {
	fmt.Print(res.ZigZag.Format())
	fmt.Print(res.ZigZagFwdOnly.Format())
	fmt.Print(res.CollisionFree.Format())
	fmt.Printf("# mean CollisionFree/ZigZag BER ratio: %.2f (paper: ~1.4×)\n", res.MeanRatio)
}

func fig54(sc experiments.Scale, seed int64) {
	res := experiments.Fig54CaptureSweep(sc, seed)
	for _, name := range []string{"ZigZag", "802.11", "Collision-Free Scheduler"} {
		fmt.Print(res.Alice[name].Format())
		fmt.Print(res.Bob[name].Format())
		fmt.Print(res.Total[name].Format())
	}
}

func testbedFigs(sc experiments.Scale, seed int64) {
	res := experiments.RunTestbed(sc, seed)
	fmt.Print(metrics.FormatCDF("Fig 5-5 aggregate throughput — ZigZag", res.ThroughputZigZag.CDF()))
	fmt.Print(metrics.FormatCDF("Fig 5-5 aggregate throughput — 802.11", res.Throughput80211.CDF()))
	fmt.Print(metrics.FormatCDF("Fig 5-6 loss rate — ZigZag", res.LossZigZag.CDF()))
	fmt.Print(metrics.FormatCDF("Fig 5-6 loss rate — 802.11", res.Loss80211.CDF()))
	var scatter strings.Builder
	scatter.WriteString("# Fig 5-7 scatter: per-flow throughput (802.11, ZigZag)\n")
	for _, p := range res.Scatter {
		fmt.Fprintf(&scatter, "%10.4f %10.4f\n", p.X, p.Y)
	}
	fmt.Print(scatter.String())
	fmt.Print(metrics.FormatCDF("Fig 5-8 hidden-terminal loss — ZigZag", res.HiddenLossZigZag.CDF()))
	fmt.Print(metrics.FormatCDF("Fig 5-8 hidden-terminal loss — 802.11", res.HiddenLoss80211.CDF()))
	fmt.Printf("# mean throughput gain: %+.1f%% (paper: +31%%)\n", res.MeanThroughputGain*100)
	fmt.Printf("# mean loss: 802.11 %.1f%% → ZigZag %.1f%% (paper: 18.9%% → 0.2%%)\n",
		res.MeanLoss80211*100, res.MeanLossZigZag*100)
	fmt.Printf("# hidden-terminal loss: 802.11 %.1f%% → ZigZag %.1f%% (paper: 82.3%% → 0.7%%)\n",
		res.HiddenMean80211*100, res.HiddenMeanZigZag*100)
}

func harsh(sc experiments.Scale, seed int64, k int) {
	printHarsh(experiments.HarshChannelSuiteK(sc, seed, k))
}

func printHarsh(res experiments.HarshResult) {
	fmt.Print(res.BERvsDoppler.Format())
	fmt.Print(res.BERvsDopplerNoTrack.Format())
	fmt.Print(res.BERvsRicianK.Format())
	fmt.Print(res.BERvsInterfDuty.Format())
	fmt.Print(res.BERvsDrift.Format())
	fmt.Println("# chunk-wise re-estimation (§4.2.4b) wins under CFO drift — its design")
	fmt.Println("# target — but Rayleigh phase dynamics can destabilize the α·δφ/δt loop;")
	fmt.Println("# K→∞ recovers the static paper channel")
}

func kway(sc experiments.Scale, seed int64) {
	printKWay(experiments.KWayOrderSweep(sc, seed))
}

func printKWay(res experiments.KWayResult) {
	fmt.Print(res.BERvsK.Format())
	fmt.Print(res.BERvsKFading.Format())
	fmt.Println("# each extra colliding packet adds one re-encode error source per chunk;")
	fmt.Println("# the fading leg shows how that compounds against a moving channel")
}

func fig59(sc experiments.Scale, seed int64) {
	res := experiments.Fig59ThreeHiddenTerminals(sc, seed)
	fmt.Print(metrics.FormatCDF("Fig 5-9 per-sender throughput, 3 hidden terminals (ZigZag)", res.CDF.CDF()))
	fmt.Printf("# per-sender means: %.3f %.3f %.3f (fairness spread %.3f)\n",
		res.MeanPerSender[0], res.MeanPerSender[1], res.MeanPerSender[2], res.FairnessSpread)
}
