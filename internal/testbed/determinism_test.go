package testbed

import (
	"reflect"
	"runtime"
	"testing"

	"zigzag/internal/impair"
	"zigzag/internal/session"
)

// TestCollisionFreeWorkerInvariant pins the parallel collision-free
// scheduler to its serial reference: every slot draws from its own
// seed-derived stream, so delivery counts, BER tallies, and throughput
// must be byte-identical at any worker count.
func TestCollisionFreeWorkerInvariant(t *testing.T) {
	run := func(w int) RunResult {
		cfg := HiddenPairConfig(14, 14, FullyHidden, 4, 80, 0.05, 5)
		cfg.Workers = w
		return Run(cfg, CollisionFree)
	}
	ref := run(1)
	sweep := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		sweep = append(sweep, n)
	}
	for _, w := range sweep {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from serial reference\nserial: %+v\n   got: %+v", w, ref, got)
		}
	}
}

// TestImpairedRunDeterminism pins the harsh-channel testbed runs: a
// run with a time-varying impairment profile is reproducible (same
// seed → byte-identical result, including across pooled-session
// reuse) and actually differs from the static channel.
func TestImpairedRunDeterminism(t *testing.T) {
	cfg := HiddenPairConfig(14, 14, FullyHidden, 3, 100, 0.05, 6)
	cfg.Impair = impair.Profile{Doppler: 3e-4, InterfDuty: 0.2, InterfAmp: 0.6}
	staticCfg := cfg
	staticCfg.Impair = impair.Profile{}

	ref := Run(cfg, ZigZag)
	sess := session.New(cfg.CoreConfig())
	if got := RunWith(sess, cfg, ZigZag); !reflect.DeepEqual(got, ref) {
		t.Fatal("impaired run not reproducible on a fresh session")
	}
	// Interleave a static run on the same session, then repeat: the
	// session must not leak the chain either way.
	staticRef := Run(staticCfg, ZigZag)
	if got := RunWith(sess, staticCfg, ZigZag); !reflect.DeepEqual(got, staticRef) {
		t.Fatal("static run after an impaired one diverged — chain leaked through the session")
	}
	if got := RunWith(sess, cfg, ZigZag); !reflect.DeepEqual(got, ref) {
		t.Fatal("impaired run not reproducible on a reused session")
	}
	if reflect.DeepEqual(ref, staticRef) {
		t.Fatal("impairment profile had no effect on the run")
	}
}
