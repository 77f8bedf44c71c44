package main

import (
	"encoding/json"
	"fmt"
	"os"

	"zigzag/internal/campaign"
)

// The campaign leg of -check guards the streaming-metrics stack:
//
//  1. Shard-merge identity: the trimmed campaign runs unsharded at one
//     worker, then as two shards at two workers each, and the merged
//     report must be byte-identical — the acceptance property of the
//     whole sharded engine, exercised through the same path the CLI
//     uses.
//  2. Calibrated cost: the unsharded campaign's wall-clock is
//     normalized by the calibration kernel and gated against
//     BENCH_campaign.json; the two-shard run of the same work is
//     additionally gated on its overhead ratio, which is what the
//     shard-merge machinery is allowed to cost.

// campaignBenchFile mirrors the committed BENCH_campaign.json layout
// (only the fields -check consumes).
type campaignBenchFile struct {
	Check struct {
		ToleranceFactor  float64            `json:"tolerance_factor"`
		MaxShardOverhead float64            `json:"max_shard_overhead"`
		ReferenceUnits   map[string]float64 `json:"reference_units"`
	} `json:"check"`
}

// campaignCheckConfig is the trimmed campaign the gate runs.
func campaignCheckConfig() campaign.Config {
	cfg := campaignConfig("quick", 3, 1, 2)
	cfg.Trials = 48
	return cfg
}

// runCampaignCheck runs the identity and cost gates. It returns the
// measured units (for -bench-out) and whether any gate failed.
func runCampaignCheck(cal float64) (map[string]float64, bool) {
	var ref campaignBenchFile
	ref.Check.ToleranceFactor = 2.5
	ref.Check.MaxShardOverhead = 1.6
	if data, err := os.ReadFile("BENCH_campaign.json"); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: BENCH_campaign.json unreadable: %v\n", err)
			return nil, true
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench-check: BENCH_campaign.json not found; reporting campaign measurements without unit gating")
	}
	if ref.Check.ToleranceFactor <= 0 {
		ref.Check.ToleranceFactor = 2.5
	}
	if ref.Check.MaxShardOverhead <= 0 {
		ref.Check.MaxShardOverhead = 1.6
	}

	failed := false
	cfg := campaignCheckConfig()

	// Gate 1 + cost: unsharded reference, then two shards merged.
	wholeDur, wholeOut := timeSweep(func() any {
		acc, err := campaign.Run(cfg, 1, 0, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: campaign: %v\n", err)
			os.Exit(1)
		}
		return acc.Report()
	})
	shardCfg := cfg
	shardCfg.Workers = 2
	shardDur, shardOut := timeSweep(func() any {
		merged := campaign.NewAcc()
		for i := 0; i < 2; i++ {
			part, err := campaign.Run(shardCfg, 2, i, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench-check: campaign shard %d: %v\n", i, err)
				os.Exit(1)
			}
			merged.Merge(part)
		}
		return merged.Report()
	})
	if wholeOut != shardOut {
		fmt.Fprintln(os.Stderr, "bench-check: campaign: 2-shard merged report DIFFERS from unsharded run — shard merge broke determinism")
		failed = true
	} else {
		fmt.Println("bench-check campaign  2-shard merge ≡ unsharded run (byte-identical report)")
	}

	// Gate 2: calibrated units and shard overhead.
	units := map[string]float64{
		"campaign":         wholeDur.Seconds() / cal,
		"campaign_sharded": shardDur.Seconds() / cal,
	}
	overhead := shardDur.Seconds() / wholeDur.Seconds()
	verdict := "ok"
	if refUnits, hasRef := ref.Check.ReferenceUnits["campaign"]; hasRef && units["campaign"] > refUnits*ref.Check.ToleranceFactor {
		verdict = fmt.Sprintf("PERF REGRESSION (%.1f units > %.1f × %.1f)", units["campaign"], refUnits, ref.Check.ToleranceFactor)
		failed = true
	}
	fmt.Printf("bench-check campaign  unsharded %7.3fs  %6.1f units  %s\n", wholeDur.Seconds(), units["campaign"], verdict)
	verdict = "ok"
	if overhead > ref.Check.MaxShardOverhead {
		verdict = fmt.Sprintf("SHARD OVERHEAD REGRESSION (%.2fx > %.2fx)", overhead, ref.Check.MaxShardOverhead)
		failed = true
	}
	fmt.Printf("bench-check campaign  2-shard   %7.3fs  %6.1f units  overhead %.2fx  %s\n",
		shardDur.Seconds(), units["campaign_sharded"], overhead, verdict)
	return units, failed
}
