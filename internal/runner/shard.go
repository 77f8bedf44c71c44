package runner

import (
	"math/rand"
	"runtime/debug"
	"sync"
)

// Shard-aware streaming execution.
//
// Map materializes every trial result — O(trials) memory — which caps
// sweeps at what one process can hold. Reduce streams instead: workers
// fold contiguous BLOCKS of trials into per-block accumulators and
// merge them into one shard accumulator as they complete, so resident
// state is O(workers), independent of the trial count.
//
// A SHARD is a contiguous range of the global trial index space
// (ShardRange). Per-trial seeds are always derived from the GLOBAL
// trial index — TrialSeed(base, globalTrial) — never from a
// shard-relative one, so trial i runs the identical random stream
// whether it executes in shard 0 of 1, shard 3 of 7, or any worker
// count. That, plus the accumulator contract below, is what lets a
// counting sweep split across processes and merge byte-identically.
//
// Accumulator contract: the caller's Merge must be EXACTLY associative
// and commutative (integer tallies, metrics.ExactSum/QuantileSketch,
// min/max — not naive float sums), because block completion order
// depends on scheduling. The shard-invariance suites in runner,
// session and experiments pin the contract end to end.

// ShardRange returns shard index's contiguous range of the global
// trial space [0, trials): [trials·i/n, trials·(i+1)/n). The ranges of
// all n shards tile [0, trials) exactly.
func ShardRange(trials, shards, index int) Batch {
	if shards <= 0 {
		shards, index = 1, 0
	}
	return Batch{Lo: trials * index / shards, Hi: trials * (index + 1) / shards}
}

// DefaultBlockSize is the per-block trial count Reduce uses when the
// spec leaves BlockSize zero: coarse enough that the per-block merge
// amortizes, fine enough that load balances across workers.
const DefaultBlockSize = 32

// ReduceSpec configures one streaming reduction over a shard.
type ReduceSpec[S, A any] struct {
	// Shard is the global trial index range to run (ShardRange output;
	// Batch{0, trials} for an unsharded run).
	Shard Batch
	// BlockSize is the trials-per-block granularity of scheduling and
	// merging (0 = DefaultBlockSize). Blocks are shard-relative: block
	// b covers global trials
	// [Shard.Lo+b·BlockSize, min(Shard.Lo+(b+1)·BlockSize, Shard.Hi)).
	BlockSize int
	// Opts carries Workers and BaseSeed. Seeds derive from the GLOBAL
	// trial index.
	Opts Options

	// Acquire/Release bracket worker-local state exactly as in MapLocal
	// (pooled sessions). Either may be nil.
	Acquire func() S
	Release func(S)

	// NewAcc returns a fresh empty accumulator (per block, and the
	// shard's initial accumulator).
	NewAcc func() A
	// Fold folds one trial into acc and returns it. rng is the trial's
	// deterministic stream (NewRand(BaseSeed, globalTrial)).
	Fold func(local S, acc A, trial int, rng *rand.Rand) A
	// Merge combines two accumulators. It MUST be exactly associative
	// and commutative; it may mutate and return dst.
	Merge func(dst, src A) A
}

// numBlocks returns the number of scheduling blocks in the spec's
// shard.
func (spec *ReduceSpec[S, A]) numBlocks() int {
	bs := spec.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	n := spec.Shard.Hi - spec.Shard.Lo
	if n <= 0 {
		return 0
	}
	return (n + bs - 1) / bs
}

// Reduce runs the spec's fold over its shard on a worker pool and
// returns the merged accumulator. Memory is O(workers): one block
// accumulator per in-flight worker plus the shard accumulator. A
// panicking trial re-raises on the caller after the pool drains
// (MustMap's discipline; folds are infallible by construction).
func Reduce[S, A any](spec ReduceSpec[S, A]) A {
	bs := spec.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	nblocks := spec.numBlocks()

	acc := spec.NewAcc()
	if nblocks == 0 {
		return acc
	}

	workers := spec.Opts.workers()
	if workers > nblocks {
		workers = nblocks
	}

	var (
		mu       sync.Mutex
		panicked *PanicError
		quit     = make(chan struct{})
		quitOnce sync.Once
	)
	runBlock := func(local S, b int) {
		trial := -1
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if panicked == nil {
					panicked = &PanicError{Trial: trial, Value: v, Stack: debug.Stack()}
				}
				mu.Unlock()
				quitOnce.Do(func() { close(quit) })
			}
		}()
		blockAcc := spec.NewAcc()
		r := spec.blockRange(b, bs)
		for trial = r.Lo; trial < r.Hi; trial++ {
			rng := NewRand(spec.Opts.BaseSeed, trial)
			blockAcc = spec.Fold(local, blockAcc, trial, rng)
		}
		mu.Lock()
		defer mu.Unlock()
		acc = spec.Merge(acc, blockAcc)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local S
			if spec.Acquire != nil {
				local = spec.Acquire()
			}
			if spec.Release != nil {
				defer spec.Release(local)
			}
			for b := range jobs {
				runBlock(local, b)
			}
		}()
	}
feed:
	for b := 0; b < nblocks; b++ {
		select {
		case jobs <- b:
		case <-quit:
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if panicked != nil {
		panic(panicked)
	}
	return acc
}

// blockRange returns block b's global trial range.
func (spec *ReduceSpec[S, A]) blockRange(b, bs int) Batch {
	lo := spec.Shard.Lo + b*bs
	hi := lo + bs
	if hi > spec.Shard.Hi {
		hi = spec.Shard.Hi
	}
	return Batch{Lo: lo, Hi: hi}
}
