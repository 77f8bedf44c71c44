// Package hatch is the registry of the repository's runtime switches.
// One remains: no-obs, which detaches the observability layer. Every
// reference path (the naive correlator, per-sample interpolation, the
// scalar kernel references, unpooled sessions, pairwise SIC at k ≥ 3,
// materialized metrics, one-shot ingest) lives in the tests as an
// oracle, not in the program, and the build alone picks the DSP kernel
// form (SSE2 assembly on amd64 without the purego tag, Go elsewhere).
// A hatch has exactly one flag name, one ZIGZAG_* environment variable
// (derived from the flag name, so the two can never drift), and one
// setter/getter pair in the package that owns the path. zigzag-serve,
// the only CLI whose code reads a hatch, wires every hatch with a
// single Bind call.
//
// Precedence discipline: the environment variable is read once at
// process init by the owning package, and any value other than "" or
// "0" sets the hatch; an explicit `-<hatch>` flag forces the hatch ON;
// an *absent* flag never touches the state, so a bare CLI invocation
// cannot clobber the environment.
package hatch

import (
	"flag"
	"strings"

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
