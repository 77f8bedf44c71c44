package hatch

import (
	"flag"
	"testing"
)

// saveAll snapshots every hatch and returns the restorer (the
// registry's setters mutate process-global state).
func saveAll() func() {
	states := make([]bool, len(registry))
	for i, h := range registry {
		states[i] = h.Get()
	}
	return func() {
		for i, h := range registry {
			h.Set(states[i])
		}
	}
}

// TestRegistryShape pins the anti-drift contract: every hatch's env
// var is mechanically derived from its flag name, names are unique,
// and every entry is fully wired.
func TestRegistryShape(t *testing.T) {
	if len(registry) != 2 || registry[0].Name != "naive-kernels" || registry[1].Name != "no-obs" {
		t.Fatalf("registry = %v, want exactly naive-kernels and no-obs", registry)
	}
	seen := map[string]bool{}
	for _, h := range registry {
		if h.Name == "" || h.Help == "" || h.Set == nil || h.Get == nil {
			t.Fatalf("hatch %q is incompletely wired", h.Name)
		}
		if seen[h.Name] {
			t.Fatalf("duplicate hatch name %q", h.Name)
		}
		seen[h.Name] = true
		if want := EnvFor(h.Name); h.Env != want {
			t.Fatalf("hatch %q env = %q, want derived %q", h.Name, h.Env, want)
		}
	}
	if want := "ZIGZAG_NAIVE_KERNELS"; EnvFor("naive-kernels") != want {
		t.Fatalf("EnvFor derivation changed: %q", EnvFor("naive-kernels"))
	}
}

// TestSetGetRoundTrip verifies each setter/getter pair actually
// controls the same state.
func TestSetGetRoundTrip(t *testing.T) {
	defer saveAll()()
	for _, h := range registry {
		h.Set(true)
		if !h.Get() {
			t.Fatalf("hatch %q: Set(true) not visible through Get", h.Name)
		}
		h.Set(false)
		if h.Get() {
			t.Fatalf("hatch %q: Set(false) not visible through Get", h.Name)
		}
	}
}

// TestBindAppliesExplicitFlagsOnly pins the env-precedence discipline:
// apply forces exactly the hatches named on the command line and
// leaves every other hatch's state untouched — including one already
// forced on (as ZIGZAG_*=1 at process init would have).
func TestBindAppliesExplicitFlagsOnly(t *testing.T) {
	defer saveAll()()
	for _, argv := range [][]string{nil, {"-" + registry[0].Name}} {
		registry[0].Set(false)
		registry[1].Set(true) // stands in for ZIGZAG_NO_OBS=1

		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		apply := Bind(fs)
		if err := fs.Parse(argv); err != nil {
			t.Fatal(err)
		}
		apply()

		if got, want := registry[0].Get(), len(argv) > 0; got != want {
			t.Fatalf("argv %q: hatch %q = %v after apply, want %v", argv, registry[0].Name, got, want)
		}
		if !registry[1].Get() {
			t.Fatalf("argv %q: absent flag cleared hatch %q", argv, registry[1].Name)
		}
	}
}

// TestBindRegistersAllFlags verifies Bind puts every hatch on the
// FlagSet under its registry name.
func TestBindRegistersAllFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs)
	for _, h := range registry {
		if fs.Lookup(h.Name) == nil {
			t.Fatalf("hatch %q not registered as a flag", h.Name)
		}
	}
}
