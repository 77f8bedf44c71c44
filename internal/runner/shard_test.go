package runner

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestShardRangeTiles pins that the shard ranges of any split tile the
// global trial space exactly: contiguous, non-overlapping, complete.
func TestShardRangeTiles(t *testing.T) {
	f := func(trialsRaw, shardsRaw uint16) bool {
		trials := int(trialsRaw % 10000)
		shards := 1 + int(shardsRaw%64)
		next := 0
		for i := 0; i < shards; i++ {
			b := ShardRange(trials, shards, i)
			if b.Lo != next || b.Hi < b.Lo {
				return false
			}
			next = b.Hi
		}
		return next == trials
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// trialTally is the reference accumulator of these tests: integer
// tallies keyed off each trial's deterministic rng draw, so the merged
// value pins both coverage (every trial exactly once) and seeding (the
// GLOBAL trial index defines the stream).
type trialTally struct {
	N   int
	Sum uint64
}

func tallySpec(trials int, sh Batch, workers, blockSize int) ReduceSpec[struct{}, *trialTally] {
	return ReduceSpec[struct{}, *trialTally]{
		Shard:     sh,
		BlockSize: blockSize,
		Opts:      Options{Workers: workers, BaseSeed: 42},
		NewAcc:    func() *trialTally { return &trialTally{} },
		Fold: func(_ struct{}, acc *trialTally, trial int, rng *rand.Rand) *trialTally {
			acc.N++
			acc.Sum += rng.Uint64() + uint64(trial)*3
			return acc
		},
		Merge: func(dst, src *trialTally) *trialTally {
			dst.N += src.N
			dst.Sum += src.Sum
			return dst
		},
	}
}

// serialTally is the single-threaded reference: fold every trial in
// order with the exact per-trial stream Reduce must use.
func serialTally(trials int) trialTally {
	var acc trialTally
	for i := 0; i < trials; i++ {
		acc.N++
		acc.Sum += NewRand(42, i).Uint64() + uint64(i)*3
	}
	return acc
}

// TestReduceShardWorkerInvariant is the runner half of the shard/merge
// identity: 1, 2 and 7 shards at workers 1, 2 and NumCPU all merge to
// the serial reference exactly.
func TestReduceShardWorkerInvariant(t *testing.T) {
	const trials = 613 // awkward: not a multiple of any block size swept
	want := serialTally(trials)
	workersSweep := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		workersSweep = append(workersSweep, n)
	}
	for _, shards := range []int{1, 2, 7} {
		for _, workers := range workersSweep {
			for _, bs := range []int{0, 1, 17} {
				got := trialTally{}
				for i := 0; i < shards; i++ {
					part := Reduce(tallySpec(trials, ShardRange(trials, shards, i), workers, bs))
					got.N += part.N
					got.Sum += part.Sum
				}
				if got != want {
					t.Fatalf("shards=%d workers=%d bs=%d: got %+v want %+v", shards, workers, bs, got, want)
				}
			}
		}
	}
}

// TestReducePanicPropagates pins that a panicking fold surfaces as a
// *PanicError on the caller with the pool drained (no deadlock, no
// orphan goroutines).
func TestReducePanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T %v, want *PanicError", v, v)
		}
		if pe.Trial != 57 {
			t.Fatalf("panic trial = %d, want 57", pe.Trial)
		}
	}()
	spec := tallySpec(500, Batch{Lo: 0, Hi: 500}, 4, 8)
	inner := spec.Fold
	spec.Fold = func(local struct{}, acc *trialTally, trial int, rng *rand.Rand) *trialTally {
		if trial == 57 {
			panic("boom")
		}
		return inner(local, acc, trial, rng)
	}
	Reduce(spec)
	t.Fatal("Reduce returned after panicking fold")
}

// TestReduceEmptyShard pins the degenerate shapes: empty ranges return
// the initial accumulator untouched.
func TestReduceEmptyShard(t *testing.T) {
	got := Reduce(tallySpec(0, Batch{}, 4, 8))
	if got.N != 0 || got.Sum != 0 {
		t.Fatalf("empty reduce = %+v", got)
	}
	// A shard of a 10-trial space that holds no trials (12-way split of
	// 10 trials leaves some shards empty; shard 0 is one of them).
	b := ShardRange(10, 12, 0)
	if b.Hi != b.Lo {
		t.Fatalf("expected empty tail shard, got %+v", b)
	}
	got = Reduce(tallySpec(10, b, 4, 8))
	if got.N != 0 {
		t.Fatalf("empty shard reduce = %+v", got)
	}
}

// TestReduceLocalLifecycle pins the Acquire/Release bracket: every
// worker's local is acquired once, released once, and panics still
// release.
func TestReduceLocalLifecycle(t *testing.T) {
	var acquired, released atomic.Int32
	spec := ReduceSpec[*int, int]{
		Shard: Batch{Lo: 0, Hi: 64},
		Opts:  Options{Workers: 3, BaseSeed: 1},
		Acquire: func() *int {
			acquired.Add(1)
			return new(int)
		},
		Release: func(*int) { released.Add(1) },
		NewAcc:  func() int { return 0 },
		Fold:    func(_ *int, acc, trial int, _ *rand.Rand) int { return acc + 1 },
		Merge:   func(a, b int) int { return a + b },
	}
	// Workers>blocks clamps; acquire/release counts must balance.
	got := Reduce(spec)
	if got != 64 {
		t.Fatalf("reduce = %d, want 64", got)
	}
	if acquired.Load() == 0 || acquired.Load() != released.Load() {
		t.Fatalf("acquire/release unbalanced: %d/%d", acquired.Load(), released.Load())
	}
}
