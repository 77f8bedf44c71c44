// Package hatch is the single registry of the repository's runtime
// switches: the two an operator may really flip on a running build.
// naive-kernels pins the DSP kernel layer to its scalar references,
// which agree only to tolerance and so cannot be a test-only oracle;
// no-obs detaches the observability layer. Every other reference path
// (the naive correlator, per-sample interpolation, unpooled sessions,
// pairwise SIC at k ≥ 3, materialized metrics, one-shot ingest) lives
// in the tests as an oracle, not in the program. Each hatch has exactly
// one flag name, one ZIGZAG_* environment variable (derived from the
// flag name, so the two can never drift), and one setter/getter pair
// in the package that owns the path. The CLIs wire every hatch with a
// single Bind call.
//
// Precedence discipline, shared by every hatch: the environment
// variable is read once at process init by the owning package, and any
// value other than "" or "0" sets the hatch; an explicit `-<hatch>`
// flag forces the hatch ON; an *absent* flag never touches the state,
// so a bare CLI invocation cannot clobber the environment.
package hatch

import (
	"flag"
	"strings"

	"zigzag/internal/dsp/kern"
	"zigzag/internal/obs"
)

// Hatch is one escape hatch: a flag name, its derived environment
// variable, and the owning package's setter/getter.
type Hatch struct {
	// Name is the CLI flag name (kebab-case, no leading dash).
	Name string
	// Env is the environment variable (always "ZIGZAG_" + NAME with
	// dashes as underscores; EnvFor derives it, the registry test pins
	// it).
	Env string
	// Help is the flag usage string.
	Help string
	// Set forces the hatch state; Get reports it.
	Set func(bool)
	Get func() bool
}

// EnvFor derives a hatch's environment variable from its flag name.
func EnvFor(name string) string {
	return "ZIGZAG_" + strings.ToUpper(strings.ReplaceAll(name, "-", "_"))
}

func mk(name, help string, set func(bool), get func() bool) Hatch {
	return Hatch{Name: name, Env: EnvFor(name), Help: help, Set: set, Get: get}
}

// registry lists every hatch in stable (documentation) order.
var registry = []Hatch{
	mk("naive-kernels",
		"pin the DSP kernel layer (oscillator banks, packed FIR/rotation, batched emission impairment) to its per-sample scalar reference paths (debugging)",
		kern.SetNaive, kern.Naive),
	mk("no-obs",
		"globally disable the structured observability layer (no event emission, no metric attachment; bit-identical hot path)",
		obs.SetDisabled, obs.Disabled),
}

// Registry returns the hatches in stable order. The slice is shared;
// callers must not mutate it.
func Registry() []Hatch { return registry }

// Bind registers every hatch as a boolean flag on fs and returns the
// apply function to call once after fs.Parse: it forces ON exactly the
// hatches whose flags were set true, and touches nothing else (the
// absent-flag / env-precedence discipline above).
func Bind(fs *flag.FlagSet) (apply func()) {
	vals := make([]*bool, len(registry))
	for i, h := range registry {
		vals[i] = fs.Bool(h.Name, false, h.Help)
	}
	return func() {
		for i, h := range registry {
			if *vals[i] {
				h.Set(true)
			}
		}
	}
}
