package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"zigzag/internal/experiments"
)

// Sharded execution of the counting sweeps (fig5-3, harsh, kway):
// -shards N -shard i runs one contiguous slice of an experiment's trial
// space and writes a mergeable JSON partial; -merge folds the partials
// and renders the exact stdout the unsharded run would have printed.
// Per-trial seeds derive from the GLOBAL trial index and every partial
// is an integer tally, so any shard split at any worker count is
// byte-identical to one process doing all the work.

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
}

// countsFor runs one shard of a counting sweep; ok is false for an
// experiment that does not shard. At a zero-pair scale it runs no
// trial and returns the sweep's shape: its series and points with
// empty tallies.
func countsFor(exp string, sc experiments.Scale, seed int64, k int, sh experiments.Shard) (cs []experiments.CountSeries, ok bool) {
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

// runShard executes shard index/shards of exp and writes the partial
// to outPath ("-" or empty = stdout). Returns the process exit code.
func runShard(exp, scaleName string, sc experiments.Scale, seed int64, k, shards, index int, outPath string) int {
	if index < 0 || index >= shards {
		fmt.Fprintf(os.Stderr, "-shard %d out of range for -shards %d\n", index, shards)
		return 2
	}
	cs, ok := countsFor(exp, sc, seed, k, experiments.Shard{Shards: shards, Index: index})
	if !ok {
		fmt.Fprintf(os.Stderr, "-shards supports fig5-3, harsh and kway; %q does not shard\n", exp)
		return 2
	}
	out := shardFile{Exp: exp, Scale: scaleName, Seed: seed, K: k, Shards: shards, Index: index, Series: cs}
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
// file, for a partial of an experiment that does not shard, one whose
// index lies outside [0, shards), one from a different run, a shard
// supplied twice, or series that are not the sweep's; and 1 when the
// partials do not cover every shard. Nothing reaches stdout unless the
// merge succeeds.
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
		var f shardFile
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 1
		}
		if f.Index < 0 || f.Index >= f.Shards {
			fmt.Fprintf(os.Stderr, "%s: shard index %d out of range for %d shards\n", path, f.Index, f.Shards)
			return 1
		}
		if i == 0 {
			// Every partial folds into the sweep's empty tallies, so
			// MergeCounts refuses any series the renderer cannot read.
			shape, ok := countsFor(f.Exp, experiments.Scale{}, f.Seed, f.K, experiments.Shard{})
			if !ok {
				fmt.Fprintf(os.Stderr, "%s: experiment %q does not shard\n", path, f.Exp)
				return 1
			}
			merged = f
			merged.Series = shape
			seen = map[int]bool{}
		} else if f.Exp != merged.Exp || f.Scale != merged.Scale || f.Seed != merged.Seed || f.K != merged.K || f.Shards != merged.Shards {
			fmt.Fprintf(os.Stderr, "%s: partial from a different run (exp/scale/seed/k/shards mismatch)\n", path)
			return 1
		}
		if seen[f.Index] {
			fmt.Fprintf(os.Stderr, "%s: shard %d supplied twice\n", path, f.Index)
			return 1
		}
		seen[f.Index] = true
		if err := experiments.MergeCounts(merged.Series, f.Series); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 1
		}
	}
	if len(seen) != merged.Shards {
		fmt.Fprintf(os.Stderr, "merge covers %d of %d shards\n", len(seen), merged.Shards)
		return 1
	}
	renderCounts(merged.Exp, merged.Series)
	return 0
}
