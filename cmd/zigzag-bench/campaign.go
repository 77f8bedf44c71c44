package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"zigzag/internal/campaign"
	"zigzag/internal/experiments"
)

// Sharded campaign execution: -shards N -shard i runs one contiguous
// slice of an experiment's trial space and writes a mergeable JSON
// partial; -merge folds the partials and renders the exact stdout the
// unsharded run would have printed. Per-trial seeds derive from the
// GLOBAL trial index and every partial is an exactly mergeable tally,
// so any shard split at any worker count is byte-identical to one
// process doing all the work.
//
// The sharded experiments are the counting sweeps (fig5-3, harsh,
// kway) and the campaign engine itself; the campaign additionally
// checkpoints via -checkpoint so an interrupted shard resumes.

// shardFile is the on-disk partial: identity fields pin what was run
// so -merge can refuse mismatched partials.
type shardFile struct {
	Exp    string `json:"exp"`
	Scale  string `json:"scale"`
	Seed   int64  `json:"seed"`
	K      int    `json:"k"`
	Shards int    `json:"shards"`
	Index  int    `json:"index"`

	Series []experiments.CountSeries `json:"series,omitempty"`

	CampaignConfig *campaign.Config `json:"campaign_config,omitempty"`
	Campaign       *campaign.Acc    `json:"campaign,omitempty"`
}

// countsFor runs one shard of a counting sweep.
func countsFor(exp string, sc experiments.Scale, seed int64, k int, sh experiments.Shard) ([]experiments.CountSeries, bool) {
	switch exp {
	case "fig5-3":
		return experiments.Fig53Counts(sc, seed, sh), true
	case "harsh":
		return experiments.HarshCounts(sc, seed, k, sh), true
	case "kway":
		return experiments.KWayCounts(sc, seed, sh), true
	}
	return nil, false
}

// renderCounts prints the merged tallies exactly as the unsharded
// experiment runner would.
func renderCounts(exp string, cs []experiments.CountSeries) {
	fmt.Printf("==================== %s ====================\n", exp)
	switch exp {
	case "fig5-3":
		printFig53(experiments.Fig53FromCounts(cs))
	case "harsh":
		printHarsh(experiments.HarshFromCounts(cs))
	case "kway":
		printKWay(experiments.KWayFromCounts(cs))
	}
	fmt.Println()
}

// campaignConfig derives the campaign from the CLI knobs. Everything
// is pinned by (scale, seed, k), so shards agree by construction.
func campaignConfig(scaleName string, seed int64, workers, k int) campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.K = k
	if scaleName == "full" {
		cfg.Cells = 5
		cfg.StationsPerCell = 10
		cfg.Trials = 4096
		cfg.Payload = 200
	} else {
		cfg.Trials = 96
	}
	return cfg
}

// runCampaign is the unsharded "campaign" experiment runner.
func runCampaign(scaleName string, seed int64, workers, k int, ckPath string, ckEvery, stopAfter int) {
	cfg := campaignConfig(scaleName, seed, workers, k)
	var ck *campaign.Checkpointer
	if ckPath != "" {
		ck = &campaign.Checkpointer{Path: ckPath, EveryBlocks: ckEvery, StopAfterBlocks: stopAfter}
	}
	acc, err := campaign.Run(cfg, 1, 0, ck)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printCampaign(acc)
}

func printCampaign(acc *campaign.Acc) {
	fmt.Print(acc.Report())
	fmt.Println("# city-scale hidden-terminal campaign: overlapping BSSes, churned")
	fmt.Println("# station placement, k-way collisions jointly decoded per episode")
}

// runShard executes shard index/shards of exp and writes the partial
// to outPath ("-" or empty = stdout). Returns the process exit code.
func runShard(exp, scaleName string, sc experiments.Scale, seed int64, k, shards, index int, outPath, ckPath string, ckEvery, stopAfter int) int {
	if index < 0 || index >= shards {
		fmt.Fprintf(os.Stderr, "-shard %d out of range for -shards %d\n", index, shards)
		return 2
	}
	out := shardFile{Exp: exp, Scale: scaleName, Seed: seed, K: k, Shards: shards, Index: index}
	switch exp {
	case "campaign":
		cfg := campaignConfig(scaleName, seed, sc.Workers, k)
		var ck *campaign.Checkpointer
		if ckPath != "" {
			ck = &campaign.Checkpointer{Path: ckPath, EveryBlocks: ckEvery, StopAfterBlocks: stopAfter}
		}
		acc, err := campaign.Run(cfg, shards, index, ck)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		out.CampaignConfig = &cfg
		out.Campaign = acc
	default:
		cs, ok := countsFor(exp, sc, seed, k, experiments.Shard{Shards: shards, Index: index})
		if !ok {
			fmt.Fprintf(os.Stderr, "-shards supports fig5-3, harsh, kway and campaign; %q does not shard\n", exp)
			return 2
		}
		out.Series = cs
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runMerge folds shard partials (comma-separated paths) and renders
// the merged result. Returns the process exit code: 1, naming the
// file, for a partial whose index lies outside [0, shards), one from a
// different run, or a shard supplied twice, and 1 when the partials do
// not cover every shard.
func runMerge(list string) int {
	paths := strings.Split(list, ",")
	var (
		merged shardFile
		seen   map[int]bool
	)
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Pre-seed the accumulator so sketch pointers decode in place.
		f := shardFile{Campaign: campaign.NewAcc()}
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 1
		}
		if f.Index < 0 || f.Index >= f.Shards {
			fmt.Fprintf(os.Stderr, "%s: shard index %d out of range for %d shards\n", path, f.Index, f.Shards)
			return 1
		}
		if i == 0 {
			merged = f
			seen = map[int]bool{f.Index: true}
			continue
		}
		if f.Exp != merged.Exp || f.Scale != merged.Scale || f.Seed != merged.Seed || f.K != merged.K || f.Shards != merged.Shards {
			fmt.Fprintf(os.Stderr, "%s: partial from a different run (exp/scale/seed/k/shards mismatch)\n", path)
			return 1
		}
		if seen[f.Index] {
			fmt.Fprintf(os.Stderr, "%s: shard %d supplied twice\n", path, f.Index)
			return 1
		}
		seen[f.Index] = true
		if merged.Exp == "campaign" {
			merged.Campaign.Merge(f.Campaign)
		} else if err := experiments.MergeCounts(merged.Series, f.Series); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 1
		}
	}
	if len(seen) != merged.Shards {
		fmt.Fprintf(os.Stderr, "merge covers %d of %d shards\n", len(seen), merged.Shards)
		return 1
	}
	if merged.Exp == "campaign" {
		fmt.Printf("==================== %s ====================\n", merged.Exp)
		printCampaign(merged.Campaign)
		fmt.Println()
		return 0
	}
	renderCounts(merged.Exp, merged.Series)
	return 0
}
