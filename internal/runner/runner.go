// Package runner executes independent Monte-Carlo trials across a pool
// of worker goroutines with deterministic per-trial seeding.
//
// Every evaluation in this repository — BER sweeps, the Fig 4-7 greedy
// failure curves, the whole-testbed figures — reduces to "run N
// independent trials and fold the results". The engine here makes that
// shape parallel without giving up reproducibility:
//
//   - trial i always runs with rand.New(rand.NewSource(TrialSeed(base, i))),
//     so its random stream depends only on the base seed and the trial
//     index, never on scheduling;
//   - results are collected into a slice indexed by trial, so reduction
//     order is the trial order regardless of completion order;
//   - the fold itself is left to the caller and runs serially.
//
// Together these guarantee bit-identical output at any worker count,
// which is what the determinism regression tests across the experiment
// packages assert.
package runner

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
)

// Options configures one Map run.
type Options struct {
	// Workers is the number of goroutines executing trials. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int

	// BaseSeed is the root seed; trial i receives an rng seeded with
	// TrialSeed(BaseSeed, i).
	BaseSeed int64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TrialSeed derives the seed of trial i from the base seed with a
// splitmix64-style mix, so neighbouring indices get statistically
// independent streams and the mapping is stable across worker counts
// (and releases — the experiment goldens depend on it).
func TrialSeed(base int64, trial int) int64 {
	z := uint64(base) + (uint64(trial)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Splitmix64 advances a splitmix64 state in place and returns the next
// output. It is THE generator core of this repository's determinism
// story: the per-trial sources below run on it, and the impairment
// engine's per-(reception, emission, model) streams reuse it so "the
// exact derivation the runner uses" stays a single definition.
func Splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// source64 is a splitmix64 generator used as the per-trial random
// source. math/rand's default source reduces its int64 seed mod 2³¹−1,
// which would alias distinct trial seeds onto identical streams roughly
// once per 2³¹ pairs — paper-scale sweeps (tens of thousands of trials)
// would contain duplicates. source64 keeps the full 64-bit trial seed
// as state instead.
type source64 struct{ state uint64 }

func (s *source64) Uint64() uint64 { return Splitmix64(&s.state) }

func (s *source64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *source64) Seed(seed int64) { s.state = uint64(seed) }

// NewRand returns trial i's deterministic rng: a splitmix64 stream
// whose state is TrialSeed(base, i). This is exactly the rng Map hands
// to trial closures; it is exported so tests and serial reference
// implementations can reproduce a single trial.
func NewRand(base int64, trial int) *rand.Rand {
	return SeededRand(TrialSeed(base, trial))
}

// SeededRand returns the deterministic rng whose stream is defined by a
// bare seed: the splitmix64 generator with that state. NewRand(base, i)
// is SeededRand(TrialSeed(base, i)), so a component handed only the
// derived trial seed (e.g. session.Session.Reset) reproduces the exact
// stream the runner would have handed the trial closure.
func SeededRand(seed int64) *rand.Rand {
	return rand.New(&source64{state: uint64(seed)})
}

// TrialError wraps an error returned by a trial function.
type TrialError struct {
	Trial int
	Err   error
}

func (e *TrialError) Error() string { return fmt.Sprintf("runner: trial %d: %v", e.Trial, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// PanicError wraps a panic raised inside a trial function. The run is
// cancelled and the panic surfaces as an ordinary error instead of
// killing the process or deadlocking the pool.
type PanicError struct {
	Trial int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v", e.Trial, e.Value)
}

// Map runs fn for every trial index in [0, trials) on a pool of
// Options.Workers goroutines and returns the results in trial order.
//
// The first trial error or panic cancels the run: queued trials are
// skipped, in-flight trials observe ctx cancellation, and Map returns a
// *TrialError or *PanicError. If the caller's ctx is cancelled first,
// Map drains the pool and returns ctx's error. On any error the result
// slice is nil.
func Map[T any](ctx context.Context, trials int, opts Options, fn func(ctx context.Context, trial int, rng *rand.Rand) (T, error)) ([]T, error) {
	return MapLocal(ctx, trials, opts, nil, nil,
		func(ctx context.Context, _ struct{}, trial int, rng *rand.Rand) (T, error) {
			return fn(ctx, trial, rng)
		})
}

// MapLocal is Map with worker-local state: each worker goroutine calls
// acquire once before its first trial and release once after its last,
// and every trial it executes receives that worker's local value. This
// is the hoisting primitive behind the pooled session engine — a
// worker's Transmitter/Receiver/Air world is built (or checked out of a
// pool) once and reused across all the trials the worker runs, instead
// of being reconstructed per trial.
//
// Correctness contract: local state must not influence results. A trial
// must produce the same value whichever worker (and therefore whichever
// local instance, with whatever scratch history) runs it — which the
// per-trial rng seeding already enforces for randomness, and which
// implementations of local state enforce by full per-trial resets of
// anything observable. The determinism suites pin this at workers
// 1/2/NumCPU. Either hook may be nil; release runs even when the worker
// exits through a trial panic.
func MapLocal[S, T any](ctx context.Context, trials int, opts Options, acquire func() S, release func(S), fn func(ctx context.Context, local S, trial int, rng *rand.Rand) (T, error)) ([]T, error) {
	if trials < 0 {
		trials = 0
	}
	out := make([]T, trials)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if trials == 0 {
		return out, nil
	}
	workers := opts.workers()
	if workers > trials {
		workers = trials
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	runTrial := func(local S, i int) {
		defer func() {
			if v := recover(); v != nil {
				fail(&PanicError{Trial: i, Value: v, Stack: debug.Stack()})
			}
		}()
		rng := NewRand(opts.BaseSeed, i)
		v, err := fn(ctx, local, i, rng)
		if err != nil {
			fail(&TrialError{Trial: i, Err: err})
			return
		}
		out[i] = v
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local S
			if acquire != nil {
				local = acquire()
			}
			if release != nil {
				defer release(local)
			}
			for i := range jobs {
				runTrial(local, i)
			}
		}()
	}
feed:
	for i := 0; i < trials; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MustMap is Map for infallible trial functions — the shape of every
// Monte-Carlo sweep in this repository. fn returns only a value; the
// only possible Map error, a panicking trial, is re-raised on the
// caller (caller-side cancellation does not apply: the sweep always
// runs to completion).
func MustMap[T any](trials int, opts Options, fn func(trial int, rng *rand.Rand) T) []T {
	out, err := Map(context.Background(), trials, opts, func(_ context.Context, i int, rng *rand.Rand) (T, error) {
		return fn(i, rng), nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// MustMapLocal is MapLocal for infallible trial functions, mirroring
// MustMap: acquire/release bracket each worker's trial stream, a
// panicking trial re-raises on the caller, and the sweep always runs to
// completion.
func MustMapLocal[S, T any](trials int, opts Options, acquire func() S, release func(S), fn func(local S, trial int, rng *rand.Rand) T) []T {
	out, err := MapLocal(context.Background(), trials, opts, acquire, release,
		func(_ context.Context, local S, i int, rng *rand.Rand) (T, error) {
			return fn(local, i, rng), nil
		})
	if err != nil {
		panic(err)
	}
	return out
}

// SumInt runs an infallible integer-valued trial function across the
// pool and returns the sum of its results — the counting reduction
// shared by the failure/acceptance estimators.
func SumInt(trials int, opts Options, fn func(trial int, rng *rand.Rand) int) int {
	total := 0
	for _, v := range MustMap(trials, opts, fn) {
		total += v
	}
	return total
}

// SumIntLocal is SumInt with worker-local state (MustMapLocal's
// reduction counterpart).
func SumIntLocal[S any](trials int, opts Options, acquire func() S, release func(S), fn func(local S, trial int, rng *rand.Rand) int) int {
	total := 0
	for _, v := range MustMapLocal(trials, opts, acquire, release, fn) {
		total += v
	}
	return total
}

// Batch describes one contiguous chunk of a large iteration count. For
// experiments whose single iterations are too cheap to dispatch
// individually (hundreds of thousands of scalar draws), the caller maps
// over batches instead: batch b covers iterations [Lo, Hi) and runs
// them all on one trial rng, which keeps the per-batch streams — and
// hence the reduced result — independent of the worker count.
type Batch struct{ Lo, Hi int }

// Batches splits n iterations into ⌈n/size⌉ batches of at most size.
func Batches(n, size int) []Batch {
	if n <= 0 || size <= 0 {
		return nil
	}
	out := make([]Batch, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Batch{Lo: lo, Hi: hi})
	}
	return out
}
