package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure files")

// TestGoldenFigures pins the printed figures of the quick sweeps that run
// the joint decoder end to end: Fig 5-3's BER sweep, the harsh-channel
// suite at k=2 and k=3, and the k-way sweep. Each output is a pure
// function of its flags (worker count included) and of the kernel form
// the build picks: the impaired channels of the harsh and k-way sweeps
// render within 1e-9, not bit for bit, on the Go forms, so each form
// has its own golden directory (goldenDir). Any diff is a real change in
// what the decoder, channel or sweep computes. Re-run with -update only
// for an intended change; it rewrites the goldens of the form built.
func TestGoldenFigures(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"fig5-3-quick-seed3.txt", []string{"-exp", "fig5-3", "-scale", "quick", "-seed", "3"}},
		{"harsh-quick-seed1.txt", []string{"-exp", "harsh", "-scale", "quick", "-seed", "1"}},
		{"harsh-k3-quick-seed1.txt", []string{"-exp", "harsh", "-k", "3", "-scale", "quick", "-seed", "1"}},
		{"kway-quick-seed1.txt", []string{"-exp", "kway", "-scale", "quick", "-seed", "1"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			code, got, stderr := captureOutput(t, func() int { return run(tc.args) })
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
			}
			path := filepath.Join(goldenDir, tc.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%v output diverged from %s (re-run with -update if intended):\n%s\nwant:\n%s", tc.args, path, got, want)
			}
		})
	}
}
