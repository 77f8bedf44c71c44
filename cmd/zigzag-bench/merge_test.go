package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zigzag/internal/experiments"
)

// mergeScale is a counting-sweep scale small enough to run each
// sharded experiment twice per test.
var mergeScale = func() experiments.Scale {
	sc := experiments.Quick
	sc.Pairs = 3
	sc.Payload = 60
	sc.Workers = 1
	return sc
}()

// captureOutput runs fn with os.Stdout and os.Stderr redirected to
// files and returns its exit code and what it printed to each.
func captureOutput(t *testing.T, fn func() int) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	func() {
		defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
		code = fn()
	}()
	outF.Close()
	errF.Close()
	o, _ := os.ReadFile(outF.Name())
	e, _ := os.ReadFile(errF.Name())
	return code, string(o), string(e)
}

// writeShard runs shard index of shards of exp at seed and collision
// order k and returns the partial's path.
func writeShard(t *testing.T, dir, exp string, seed int64, k, shards, index int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-k%d-%dof%d.json", exp, seed, k, index, shards))
	if code := runShard(exp, "quick", mergeScale, seed, k, shards, index, path); code != 0 {
		t.Fatalf("runShard(%s seed %d k %d, %d of %d) exit %d", exp, seed, k, index, shards, code)
	}
	return path
}

// rewrite copies the partial at src to a sibling file named after tag,
// with edit applied, and returns the copy's path.
func rewrite(t *testing.T, src, tag string, edit func(*shardFile)) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var f shardFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	edit(&f)
	if data, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	dst := strings.TrimSuffix(src, ".json") + "-" + tag + ".json"
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// relabel copies the partial at src with its index replaced.
func relabel(t *testing.T, src string, index int) string {
	t.Helper()
	return rewrite(t, src, fmt.Sprintf("as%d", index), func(f *shardFile) { f.Index = index })
}

// TestMergeMatchesUnsharded pins the acceptance property of -merge for
// every sharded experiment: two shards, given out of order, merged
// print exactly what the unsharded run prints. Harsh runs at k=3, so
// its series names carry the collision-order tag.
func TestMergeMatchesUnsharded(t *testing.T) {
	for _, tc := range []struct {
		exp string
		k   int
		run func()
	}{
		{"fig5-3", 2, func() { fig53(mergeScale, 3) }},
		{"harsh", 3, func() { harsh(mergeScale, 3, 3) }},
		{"kway", 2, func() { kway(mergeScale, 3) }},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			dir := t.TempDir()
			s0 := writeShard(t, dir, tc.exp, 3, tc.k, 2, 0)
			s1 := writeShard(t, dir, tc.exp, 3, tc.k, 2, 1)
			code, got, stderr := captureOutput(t, func() int { return runMerge(s1 + "," + s0) })
			if code != 0 {
				t.Fatalf("merge exit %d: %s", code, stderr)
			}
			_, want, _ := captureOutput(t, func() int {
				fmt.Printf("==================== %s ====================\n", tc.exp)
				tc.run()
				fmt.Println()
				return 0
			})
			if got != want {
				t.Fatalf("merged output differs from the unsharded run:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestMergeRejectsBadPartials pins that -merge refuses, with exit 1,
// nothing on stdout and a message naming the offending file where
// there is one, every set of partials that does not cover each shard
// of one run exactly once, and every partial whose experiment or
// series the renderer cannot read.
func TestMergeRejectsBadPartials(t *testing.T) {
	dir := t.TempDir()
	s0 := writeShard(t, dir, "fig5-3", 3, 2, 2, 0)
	s1 := writeShard(t, dir, "fig5-3", 3, 2, 2, 1)
	other := writeShard(t, dir, "fig5-3", 4, 2, 2, 1)
	high := relabel(t, s0, 5)
	low := relabel(t, s1, -1)
	edge := relabel(t, s1, 2)
	// Single partials that claim the whole run: each passes the
	// coverage checks, so only the shape checks stand between it and
	// the renderer.
	noSeries := filepath.Join(dir, "no-series.json")
	if err := os.WriteFile(noSeries, []byte(`{"exp":"fig5-3","scale":"quick","seed":3,"k":2,"shards":1,"index":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ragged := rewrite(t, s0, "ragged", func(f *shardFile) {
		f.Shards = 1
		f.Series[2].Points = f.Series[2].Points[:3]
	})
	harshOne := rewrite(t, s0, "harsh-one", func(f *shardFile) {
		f.Exp, f.Shards = "harsh", 1
		f.Series = f.Series[:1]
	})
	unsharded := rewrite(t, s0, "fig4-2", func(f *shardFile) {
		f.Exp, f.Shards = "fig4-2", 1
	})
	for _, tc := range []struct {
		name  string
		files []string
		blame string // file the message must name ("" for none)
		msg   string
	}{
		{"index above range", []string{s0, high}, high, "out of range"},
		{"index at shards", []string{s0, edge}, edge, "out of range"},
		{"negative index", []string{s0, low}, low, "out of range"},
		{"out-of-range first file", []string{low, s0}, low, "out of range"},
		{"duplicate shard", []string{s0, s0}, s0, "supplied twice"},
		{"partial from another run", []string{s0, other}, other, "different run"},
		{"missing shard", []string{s0}, "", "covers 1 of 2"},
		{"partial with no series", []string{noSeries}, noSeries, "3 series vs 0"},
		{"series of unequal length", []string{ragged}, ragged, "has 7 points vs 3"},
		{"harsh partial with one series", []string{harshOne}, harshOne, "5 series vs 1"},
		{"experiment that does not shard", []string{unsharded}, unsharded, `experiment "fig4-2" does not shard`},
	} {
		code, stdout, stderr := captureOutput(t, func() int { return runMerge(strings.Join(tc.files, ",")) })
		if code != 1 {
			t.Errorf("%s: exit %d, want 1 (stdout %q)", tc.name, code, stdout)
			continue
		}
		if stdout != "" {
			t.Errorf("%s: printed a result on a refused merge: %q", tc.name, stdout)
		}
		if !strings.Contains(stderr, tc.msg) || (tc.blame != "" && !strings.HasPrefix(stderr, tc.blame+":")) {
			t.Errorf("%s: stderr %q, want %q naming %q", tc.name, stderr, tc.msg, tc.blame)
		}
	}
}
