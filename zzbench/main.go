// Command zzbench is the repository's end-to-end benchmark. It serves
// pre-rendered synthetic hidden-terminal streams through serve.Engine
// and runs the full-scale harsh-channel suite, and reports either the
// end-to-end metrics (--trace 0) or, from a separate traced pass, the
// per-layer metrics (--trace 1). Every layer is observed from outside
// the program: spans around the public calls made here, the receiver's
// typed event stream, runtime.MemStats and a CPU profile of this
// process.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash zzbench/run.sh --workload serve-live --seed 1 --seconds 42 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// host block. A failed output check exits 1 and names the workload and
// seed on standard error. BENCHMARK.json at the repository root lists
// the workloads and metrics; README.md here defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"zigzag/internal/hatch"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's command-line settings.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	profileDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced pass and per-layer metrics")
	fs.StringVar(&o.profileDir, "profile-dir", "", "with --trace 1: also write the CPU profile here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "zzbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = *traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "zzbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := refuseHatches(os.Getenv); err != nil {
		fmt.Fprintf(stderr, "zzbench: %v\n", err)
		return 2
	}

	hb, err := json.Marshal(map[string]any{"host": hostBlock(), "workload": o.workload, "seed": o.seed, "trace": o.trace})
	if err != nil {
		fmt.Fprintf(stderr, "zzbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(hb))

	res, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "zzbench: workload %s seed %d: %v\n", o.workload, o.seed, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "zzbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"serve-live":  runServe,
	"harsh-suite": runHarsh,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// refuseHatches fails when any escape hatch is set: each one selects a
// reference or legacy path that users do not run.
func refuseHatches(getenv func(string) string) error {
	for _, h := range hatch.Registry() {
		if v := getenv(h.Env); v != "" || h.Get() {
			return fmt.Errorf("refusing to run with escape hatch %s set (%s=%q): it selects a path users do not run", h.Name, h.Env, v)
		}
	}
	return nil
}

// host is the host block stamped into every result.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostBlock() host {
	h := host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
