// Package runner executes independent Monte-Carlo trials across a pool
// of worker goroutines with deterministic per-trial seeding.
//
// Every evaluation in this repository — BER sweeps, the Fig 4-7 greedy
// failure curves, the whole-testbed figures — is "run a range of
// independent trials and fold the results". Map makes that shape
// parallel without giving up reproducibility:
//
//   - trial t always draws from NewRand(base, t), seeded by its global
//     index, so its random stream depends only on the base seed and the
//     trial index, never on scheduling or on the shard that runs it;
//   - results come back in trial order, so the caller's fold sees them
//     in trial order regardless of completion order.
//
// Together these guarantee bit-identical output at any worker count and
// any ShardRange split, which the determinism regression tests across
// the experiment packages assert.
package runner

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Options configures one Map run.
type Options struct {
	// Workers is the number of goroutines executing trials. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int

	// BaseSeed is the root seed; trial t receives an rng seeded with
	// TrialSeed(BaseSeed, t).
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

// PanicError carries a panic raised inside a trial function. Map
// re-raises it on the caller once the pool has drained, instead of the
// panic killing the process from a worker goroutine.
type PanicError struct {
	Trial int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v", e.Trial, e.Value)
}

// Map runs fn for every trial in [trials.Lo, trials.Hi) on a pool of
// Options.Workers goroutines and returns the results in trial order:
// out[i] is trial trials.Lo+i. Trial t draws from NewRand(BaseSeed, t),
// its global index, so a shard of a sweep reproduces the unsharded
// run's streams. Trials are handed out one at a time; an empty or
// inverted range starts no worker.
//
// Each started worker calls acquire once before its first trial and
// release once after its last, and passes its local value to every
// trial it runs; either hook may be nil. Local state must not influence
// results: a trial returns the same value whichever worker runs it,
// which the byte-identity suites pin at several worker counts.
//
// A panicking trial stops the feed. Once the pool drains, with every
// worker released, Map re-panics on the caller with a *PanicError.
func Map[S, T any](trials Batch, opts Options, acquire func() S, release func(S), fn func(local S, trial int, rng *rand.Rand) T) []T {
	n := max(trials.Hi-trials.Lo, 0)
	out := make([]T, n)
	var (
		next     atomic.Int64
		stop     atomic.Bool
		once     sync.Once
		panicked *PanicError
		wg       sync.WaitGroup
	)
	runTrial := func(local S, i int) {
		t := trials.Lo + i
		defer func() {
			if v := recover(); v != nil {
				once.Do(func() { panicked = &PanicError{Trial: t, Value: v, Stack: debug.Stack()} })
				stop.Store(true)
			}
		}()
		out[i] = fn(local, t, NewRand(opts.BaseSeed, t))
	}
	workers := min(opts.workers(), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var local S
			if acquire != nil {
				local = acquire()
			}
			if release != nil {
				defer release(local)
			}
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				runTrial(local, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// Batch is a contiguous range [Lo, Hi) of indices: the trial range Map
// runs, one shard of a sweep (ShardRange), or one chunk of a large
// iteration count (Batches). Experiments whose single iterations are
// too cheap to dispatch individually (hundreds of thousands of scalar
// draws) map over batches instead: batch b runs all its iterations on
// one trial rng, which keeps the per-batch streams — and hence the
// folded result — independent of the worker count.
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

// ShardRange returns shard index's contiguous range of the global
// trial space [0, trials): [trials·i/n, trials·(i+1)/n). The ranges of
// all n shards tile [0, trials) exactly, and since Map seeds each trial
// by its global index, mapping every shard and concatenating the
// results reproduces the unsharded run.
func ShardRange(trials, shards, index int) Batch {
	if shards <= 0 {
		shards, index = 1, 0
	}
	return Batch{Lo: trials * index / shards, Hi: trials * (index + 1) / shards}
}
