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

// TestRegistryShape pins the anti-drift contract: the registry holds
// exactly the no-obs hatch, its env var is mechanically derived from
// its flag name, and the entry is fully wired.
func TestRegistryShape(t *testing.T) {
	if len(registry) != 1 || registry[0].Name != "no-obs" {
		t.Fatalf("registry = %v, want exactly no-obs", registry)
	}
	h := registry[0]
	if h.Help == "" || h.Set == nil || h.Get == nil {
		t.Fatalf("hatch %q is incompletely wired", h.Name)
	}
	if want := "ZIGZAG_NO_OBS"; h.Env != want || EnvFor(h.Name) != want {
		t.Fatalf("hatch %q env = %q (EnvFor %q), want %q", h.Name, h.Env, EnvFor(h.Name), want)
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
// apply forces the hatch on when its flag is named, and an absent flag
// leaves the state untouched — off stays off, and on (as ZIGZAG_NO_OBS=1
// at process init would set it) stays on.
func TestBindAppliesExplicitFlagsOnly(t *testing.T) {
	defer saveAll()()
	h := registry[0]
	for _, tc := range []struct {
		argv      []string
		before    bool
		wantAfter bool
	}{
		{nil, false, false},
		{nil, true, true},
		{[]string{"-" + h.Name}, false, true},
	} {
		h.Set(tc.before)
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		apply := Bind(fs)
		if err := fs.Parse(tc.argv); err != nil {
			t.Fatal(err)
		}
		apply()
		if got := h.Get(); got != tc.wantAfter {
			t.Fatalf("argv %q, state %v before: hatch %q = %v after apply, want %v",
				tc.argv, tc.before, h.Name, got, tc.wantAfter)
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
