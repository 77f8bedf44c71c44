package runner

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sum is the reference fold used by the determinism tests.
func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

func TestMapOrderedResults(t *testing.T) {
	got, err := Map(context.Background(), 100, Options{Workers: 7}, func(_ context.Context, trial int, _ *rand.Rand) (int, error) {
		return trial * trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(context.Background(), 64, Options{Workers: workers, BaseSeed: 42}, func(_ context.Context, trial int, rng *rand.Rand) (float64, error) {
			v := 0.0
			for k := 0; k < 100; k++ {
				v += rng.Float64()
			}
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 3, runtime.NumCPU(), 32} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from serial: sum %v vs %v", w, sum(got), sum(ref))
		}
	}
}

func TestTrialSeedStable(t *testing.T) {
	// Pinned values: the experiment goldens depend on this mapping never
	// changing.
	if s := TrialSeed(0, 0); s != -2152535657050944081 {
		t.Fatalf("TrialSeed(0,0) = %d", s)
	}
	if s := TrialSeed(1, 1); s != -4689498862643123097 {
		t.Fatalf("TrialSeed(1,1) = %d", s)
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := TrialSeed(7, i)
		if seen[s] {
			t.Fatalf("duplicate seed at trial %d", i)
		}
		seen[s] = true
	}
}

// TestNewRandStreamStable pins the first draws of a trial rng: the
// experiment goldens depend on the splitmix64 source never changing.
// (The source keeps the full 64-bit trial seed as state — math/rand's
// default source would collapse it mod 2³¹−1 and alias distinct trials
// onto identical streams in paper-scale sweeps.)
func TestNewRandStreamStable(t *testing.T) {
	r := NewRand(0, 0)
	if a, b, c := r.Int63(), r.Int63(), r.Intn(1000); a != 6017775124710473527 || b != 6467540162864785327 || c != 762 {
		t.Fatalf("stream drifted: %d %d %d", a, b, c)
	}
	// Distinct trials must give distinct streams even where int64 seeds
	// would alias mod 2³¹−1 (the math/rand failure mode).
	x := NewRand(3, 1).Int63()
	for trial := 2; trial < 200; trial++ {
		if NewRand(3, trial).Int63() == x {
			t.Fatalf("trial %d repeats trial 1's stream", trial)
		}
	}
}

func TestMapZeroAndNegativeTrials(t *testing.T) {
	for _, n := range []int{0, -3} {
		out, err := Map(context.Background(), n, Options{}, func(_ context.Context, _ int, _ *rand.Rand) (int, error) {
			t.Fatal("fn called")
			return 0, nil
		})
		if err != nil || len(out) != 0 {
			t.Fatalf("n=%d: out=%v err=%v", n, out, err)
		}
	}
}

func TestMapTrialError(t *testing.T) {
	sentinel := errors.New("boom")
	out, err := Map(context.Background(), 50, Options{Workers: 4}, func(_ context.Context, trial int, _ *rand.Rand) (int, error) {
		if trial == 17 {
			return 0, sentinel
		}
		return trial, nil
	})
	if out != nil {
		t.Fatal("results should be nil on error")
	}
	var te *TrialError
	if !errors.As(err, &te) || te.Trial != 17 || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapPanicSurfacesWithoutDeadlock(t *testing.T) {
	doneCh := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), 200, Options{Workers: 4}, func(_ context.Context, trial int, _ *rand.Rand) (int, error) {
			if trial == 23 {
				panic("kaboom")
			}
			return trial, nil
		})
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Trial != 23 || len(pe.Stack) == 0 {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Map deadlocked after a panicking trial")
	}
}

func TestMapCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	doneCh := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 10000, Options{Workers: 2}, func(ctx context.Context, trial int, _ *rand.Rand) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return trial, nil
		})
		doneCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-doneCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 10, Options{}, func(_ context.Context, trial int, _ *rand.Rand) (int, error) {
		t.Error("fn called on cancelled context")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestBatches(t *testing.T) {
	bs := Batches(10, 4)
	want := []Batch{{0, 4}, {4, 8}, {8, 10}}
	if !reflect.DeepEqual(bs, want) {
		t.Fatalf("Batches = %v", bs)
	}
	if Batches(0, 4) != nil || Batches(5, 0) != nil {
		t.Fatal("degenerate batches should be nil")
	}
}

// TestStressCancelAndPanicUnderRace hammers the pool with many short
// runs, half of which are cancelled mid-sweep and half of which panic,
// to give the race detector scheduling diversity. Must neither deadlock
// nor leak goroutines in a way that trips -race.
func TestStressCancelAndPanicUnderRace(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for r := 0; r < rounds; r++ {
		ctx, cancel := context.WithCancel(context.Background())
		panicky := r%2 == 0
		go func() {
			time.Sleep(time.Duration(r%5) * 100 * time.Microsecond)
			cancel()
		}()
		_, err := Map(ctx, 500, Options{Workers: 8, BaseSeed: int64(r)}, func(ctx context.Context, trial int, rng *rand.Rand) (int, error) {
			if panicky && trial == 250 {
				panic("stress")
			}
			return rng.Intn(1000), nil
		})
		cancel()
		if err != nil {
			var pe *PanicError
			if !errors.Is(err, context.Canceled) && !errors.As(err, &pe) {
				t.Fatalf("round %d: unexpected error %v", r, err)
			}
		}
	}
}

// TestMapLocalAcquireReleasePerWorker pins the worker-local lifecycle:
// acquire runs once per worker goroutine, release once per worker (even
// when a trial panics), and every trial observes its worker's local
// value.
func TestMapLocalAcquireReleasePerWorker(t *testing.T) {
	var mu sync.Mutex
	acquired, released := 0, 0
	type local struct{ id int }
	out, err := MapLocal(context.Background(), 64, Options{Workers: 4, BaseSeed: 1},
		func() *local {
			mu.Lock()
			defer mu.Unlock()
			acquired++
			return &local{id: acquired}
		},
		func(l *local) {
			mu.Lock()
			defer mu.Unlock()
			if l == nil {
				t.Error("release saw nil local")
			}
			released++
		},
		func(_ context.Context, l *local, trial int, _ *rand.Rand) (int, error) {
			if l == nil || l.id == 0 {
				t.Errorf("trial %d: missing local", trial)
			}
			return trial, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if acquired != 4 || released != 4 {
		t.Fatalf("acquire/release = %d/%d, want 4/4", acquired, released)
	}
}

// TestMapLocalReleaseOnPanic checks release still runs when the
// worker's trial panics.
func TestMapLocalReleaseOnPanic(t *testing.T) {
	var mu sync.Mutex
	acquired, released := 0, 0
	_, err := MapLocal(context.Background(), 16, Options{Workers: 2, BaseSeed: 1},
		func() int { mu.Lock(); defer mu.Unlock(); acquired++; return acquired },
		func(int) { mu.Lock(); defer mu.Unlock(); released++ },
		func(_ context.Context, _ int, trial int, _ *rand.Rand) (int, error) {
			if trial == 3 {
				panic("boom")
			}
			return 0, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if acquired != released {
		t.Fatalf("acquire/release mismatch: %d vs %d", acquired, released)
	}
}

// TestMapLocalMatchesMap pins that the worker-local variant hands
// trials the identical per-trial rng streams as Map, at any worker
// count.
func TestMapLocalMatchesMap(t *testing.T) {
	fn := func(trial int, rng *rand.Rand) uint64 { return rng.Uint64() ^ uint64(trial) }
	ref := MustMap(100, Options{Workers: 1, BaseSeed: 7}, fn)
	for _, w := range []int{1, 3, 8} {
		got := MustMapLocal(100, Options{Workers: w, BaseSeed: 7},
			func() struct{} { return struct{}{} }, nil,
			func(_ struct{}, trial int, rng *rand.Rand) uint64 { return fn(trial, rng) })
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// TestSeededRandMatchesNewRand pins SeededRand(TrialSeed(base, i)) ==
// NewRand(base, i) — the equivalence Session.Reset(seed) relies on.
func TestSeededRandMatchesNewRand(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		a := NewRand(42, trial)
		b := SeededRand(TrialSeed(42, trial))
		for k := 0; k < 20; k++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("trial %d draw %d: %d != %d", trial, k, x, y)
			}
		}
	}
}
