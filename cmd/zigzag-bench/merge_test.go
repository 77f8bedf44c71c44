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

// mergeScale is a Fig 5-3 sweep small enough to run three times per
// test.
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

// writeShard runs shard index of shards of the Fig 5-3 sweep at seed
// and returns the partial's path.
func writeShard(t *testing.T, dir string, seed int64, shards, index int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("s%d-%dof%d.json", seed, index, shards))
	if code := runShard("fig5-3", "quick", mergeScale, seed, 2, shards, index, path, "", 0, 0); code != 0 {
		t.Fatalf("runShard(seed %d, %d of %d) exit %d", seed, index, shards, code)
	}
	return path
}

// relabel copies the partial at src with its index replaced.
func relabel(t *testing.T, src string, index int) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var f shardFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	f.Index = index
	if data, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	dst := strings.TrimSuffix(src, ".json") + fmt.Sprintf("-as%d.json", index)
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestMergeMatchesUnsharded pins the acceptance property of -merge:
// two shards merged print exactly what the unsharded run prints.
func TestMergeMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	s0 := writeShard(t, dir, 3, 2, 0)
	s1 := writeShard(t, dir, 3, 2, 1)
	code, got, stderr := captureOutput(t, func() int { return runMerge(s1 + "," + s0) })
	if code != 0 {
		t.Fatalf("merge exit %d: %s", code, stderr)
	}
	_, want, _ := captureOutput(t, func() int {
		fmt.Println("==================== fig5-3 ====================")
		fig53(mergeScale, 3)
		fmt.Println()
		return 0
	})
	if got != want {
		t.Fatalf("merged output differs from the unsharded run:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeRejectsBadPartials pins that -merge refuses, with exit 1
// and a message naming the offending file where there is one, every
// set of partials that does not cover each shard of one run exactly
// once.
func TestMergeRejectsBadPartials(t *testing.T) {
	dir := t.TempDir()
	s0 := writeShard(t, dir, 3, 2, 0)
	s1 := writeShard(t, dir, 3, 2, 1)
	other := writeShard(t, dir, 4, 2, 1)
	high := relabel(t, s0, 5)
	low := relabel(t, s1, -1)
	edge := relabel(t, s1, 2)
	campaignLow := filepath.Join(dir, "campaign-low.json")
	if err := os.WriteFile(campaignLow, []byte(`{"exp":"campaign","scale":"quick","seed":3,"k":2,"shards":2,"index":-1}`), 0o644); err != nil {
		t.Fatal(err)
	}
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
		{"campaign partial below range", []string{campaignLow}, campaignLow, "out of range"},
		{"duplicate shard", []string{s0, s0}, s0, "supplied twice"},
		{"partial from another run", []string{s0, other}, other, "different run"},
		{"missing shard", []string{s0}, "", "covers 1 of 2"},
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
