package runner

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// draw is the reference trial of these tests: a value that depends on
// both the trial index and its rng stream, so a result pins coverage,
// order and seeding at once.
func draw(trial int, rng *rand.Rand) uint64 { return rng.Uint64() ^ uint64(trial)*3 }

// serialDraws is the single-threaded reference: trial t of [0, trials)
// on its own NewRand(base, t) stream, in order.
func serialDraws(base int64, trials int) []uint64 {
	out := make([]uint64, trials)
	for t := range out {
		out[t] = draw(t, NewRand(base, t))
	}
	return out
}

// catchPanic runs f and returns the *PanicError it panics with, or nil
// when it returns normally.
func catchPanic(f func()) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			if pe, ok = v.(*PanicError); !ok {
				panic(v)
			}
		}
	}()
	f()
	return nil
}

// TestMapOrderedResults pins trial order and global-index seeding over
// a sub-range: out[i] is trial Lo+i, drawn from NewRand(base, Lo+i).
func TestMapOrderedResults(t *testing.T) {
	type res struct {
		Trial int
		V     uint64
	}
	sub := Batch{Lo: 37, Hi: 137}
	got := Map(sub, Options{Workers: 7, BaseSeed: 9}, nil, nil, func(_ struct{}, trial int, rng *rand.Rand) res {
		return res{trial, rng.Uint64()}
	})
	if len(got) != sub.Hi-sub.Lo {
		t.Fatalf("len(out) = %d, want %d", len(got), sub.Hi-sub.Lo)
	}
	for i, r := range got {
		if want := (res{sub.Lo + i, NewRand(9, sub.Lo+i).Uint64()}); r != want {
			t.Fatalf("out[%d] = %+v, want %+v", i, r, want)
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts pins the worker identity: at
// workers 1, 2, 7, NumCPU and 32 the whole range returns the serial
// reference exactly.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const trials = 613
	want := serialDraws(42, trials)
	for _, workers := range []int{1, 2, 7, runtime.NumCPU(), 32} {
		got := Map(Batch{Hi: trials}, Options{Workers: workers, BaseSeed: 42}, nil, nil,
			func(_ struct{}, trial int, rng *rand.Rand) uint64 { return draw(trial, rng) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from the serial reference", workers)
		}
	}
}

// TestReduceShardWorkerInvariant is the runner half of the shard/merge
// identity: 1-, 2- and 7-way ShardRange splits, each shard mapped at
// workers 1, 2, 7 and NumCPU, concatenate to the serial reference
// exactly. (The name is kept from the block-streaming reducer this
// identity was first pinned on; shard sweeps now run through Map.)
func TestReduceShardWorkerInvariant(t *testing.T) {
	const trials = 613 // awkward: no split divides it evenly
	want := serialDraws(42, trials)
	for _, shards := range []int{1, 2, 7} {
		for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
			var got []uint64
			for i := 0; i < shards; i++ {
				got = append(got, Map(ShardRange(trials, shards, i), Options{Workers: workers, BaseSeed: 42}, nil, nil,
					func(_ struct{}, trial int, rng *rand.Rand) uint64 { return draw(trial, rng) })...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d workers=%d diverged from the serial reference", shards, workers)
			}
		}
	}
}

// TestMapZeroAndNegativeTrials pins that empty and inverted ranges
// start no worker and return no result.
func TestMapZeroAndNegativeTrials(t *testing.T) {
	for _, b := range []Batch{{}, {Lo: 5, Hi: 5}, {Lo: 9, Hi: 4}} {
		out := Map(b, Options{Workers: 4}, func() int {
			t.Errorf("%+v: acquire called", b)
			return 0
		}, nil, func(int, int, *rand.Rand) int {
			t.Errorf("%+v: fn called", b)
			return 0
		})
		if len(out) != 0 {
			t.Fatalf("%+v: out = %v", b, out)
		}
	}
}

// TestReduceEmptyShard pins the empty shards of a split with more
// shards than trials: a 12-way split of 10 trials leaves some shards
// empty (shard 0 among them), each starts no worker, and the shards
// still concatenate to the serial reference.
func TestReduceEmptyShard(t *testing.T) {
	const trials, shards = 10, 12
	if b := ShardRange(trials, shards, 0); b.Hi != b.Lo {
		t.Fatalf("expected an empty shard 0, got %+v", b)
	}
	var got []uint64
	for i := 0; i < shards; i++ {
		b := ShardRange(trials, shards, i)
		var acquired atomic.Int32
		got = append(got, Map(b, Options{Workers: 4, BaseSeed: 42},
			func() struct{} { acquired.Add(1); return struct{}{} }, nil,
			func(_ struct{}, trial int, rng *rand.Rand) uint64 { return draw(trial, rng) })...)
		if n := acquired.Load(); b.Hi == b.Lo && n != 0 {
			t.Fatalf("empty shard %d (%+v) started %d workers", i, b, n)
		}
	}
	if !reflect.DeepEqual(got, serialDraws(42, trials)) {
		t.Fatal("shards with empty members diverged from the serial reference")
	}
}

// TestMapLocalAcquireReleasePerWorker pins that acquire and release run
// once per started worker, never more workers than trials, and that
// every trial sees its worker's local value.
func TestMapLocalAcquireReleasePerWorker(t *testing.T) {
	for _, tc := range []struct{ trials, workers, started int }{
		{64, 4, 4},
		{3, 8, 3},
	} {
		var mu sync.Mutex
		acquired, released := 0, 0
		type local struct{ id int }
		out := Map(Batch{Hi: tc.trials}, Options{Workers: tc.workers, BaseSeed: 1},
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
			func(l *local, trial int, _ *rand.Rand) int {
				if l == nil || l.id == 0 {
					t.Errorf("trial %d: missing local", trial)
				}
				return trial
			})
		for i, v := range out {
			if v != i {
				t.Fatalf("%+v: out[%d] = %d", tc, i, v)
			}
		}
		if acquired != tc.started || released != tc.started {
			t.Fatalf("%+v: acquire/release = %d/%d, want %d/%d", tc, acquired, released, tc.started, tc.started)
		}
	}
}

// TestReduceLocalLifecycle pins the acquire/release bracket: no trial
// runs on a local that is already released, each local is released
// exactly once, and every trial runs on exactly one local.
func TestReduceLocalLifecycle(t *testing.T) {
	type local struct {
		released atomic.Int32
		trials   int // touched only by the owning worker
	}
	var (
		mu     sync.Mutex
		locals []*local
	)
	Map(Batch{Hi: 64}, Options{Workers: 3, BaseSeed: 1},
		func() *local {
			l := &local{}
			mu.Lock()
			defer mu.Unlock()
			locals = append(locals, l)
			return l
		},
		func(l *local) {
			if l.released.Add(1) != 1 {
				t.Error("local released twice")
			}
		},
		func(l *local, trial int, _ *rand.Rand) struct{} {
			if l.released.Load() != 0 {
				t.Errorf("trial %d ran on a released local", trial)
			}
			l.trials++
			return struct{}{}
		})
	total := 0
	for _, l := range locals {
		if l.released.Load() != 1 {
			t.Fatalf("a local was released %d times", l.released.Load())
		}
		total += l.trials
	}
	if len(locals) != 3 || total != 64 {
		t.Fatalf("%d locals ran %d trials, want 3 locals and 64 trials", len(locals), total)
	}
}

// TestMapLocalReleaseOnPanic pins that the acquire/release bracket
// stays balanced when a trial panics: every started worker is released
// before the *PanicError reaches the caller.
func TestMapLocalReleaseOnPanic(t *testing.T) {
	var mu sync.Mutex
	acquired, released := 0, 0
	pe := catchPanic(func() {
		Map(Batch{Hi: 16}, Options{Workers: 2, BaseSeed: 1},
			func() int { mu.Lock(); defer mu.Unlock(); acquired++; return acquired },
			func(int) { mu.Lock(); defer mu.Unlock(); released++ },
			func(_ int, trial int, _ *rand.Rand) int {
				if trial == 3 {
					panic("boom")
				}
				return trial
			})
	})
	if pe == nil || pe.Trial != 3 {
		t.Fatalf("recovered %v, want a *PanicError at trial 3", pe)
	}
	if acquired != 2 || released != 2 {
		t.Fatalf("acquire/release = %d/%d, want 2/2", acquired, released)
	}
}

// TestMapLocalMatchesMap pins that worker-local state does not
// influence results: trials that reuse a worker's scratch buffer return
// what the same trials return without hooks, at several worker counts.
func TestMapLocalMatchesMap(t *testing.T) {
	ref := Map(Batch{Hi: 100}, Options{Workers: 1, BaseSeed: 7}, nil, nil,
		func(_ struct{}, trial int, rng *rand.Rand) uint64 { return draw(trial, rng) })
	for _, w := range []int{1, 3, 8} {
		got := Map(Batch{Hi: 100}, Options{Workers: w, BaseSeed: 7},
			func() *[]uint64 { return new([]uint64) }, nil,
			func(scratch *[]uint64, trial int, rng *rand.Rand) uint64 {
				*scratch = append((*scratch)[:0], draw(trial, rng))
				return (*scratch)[0]
			})
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// TestReducePanicPropagates pins what a panicking trial re-raises on
// the caller: a *PanicError naming the global trial index, carrying the
// panic value and its stack, and Map never returns.
func TestReducePanicPropagates(t *testing.T) {
	returned := false
	pe := catchPanic(func() {
		Map(Batch{Lo: 10, Hi: 510}, Options{Workers: 4, BaseSeed: 42}, nil, nil,
			func(_ struct{}, trial int, rng *rand.Rand) uint64 {
				if trial == 57 {
					panic("boom")
				}
				return draw(trial, rng)
			})
		returned = true
	})
	if returned {
		t.Fatal("Map returned after a panicking trial")
	}
	if pe == nil || pe.Trial != 57 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("recovered %+v, want a *PanicError at trial 57 with value and stack", pe)
	}
	if msg := pe.Error(); !strings.Contains(msg, "trial 57") || !strings.Contains(msg, "boom") {
		t.Fatalf("Error() = %q, want the trial index and the panic value", msg)
	}
	// The faulting frame: a trial that panics inside a helper names the
	// helper in Error(), the only text an unrecovered re-panic prints.
	pe = catchPanic(func() {
		Map(Batch{Hi: 8}, Options{Workers: 2}, nil, nil, func(_ struct{}, trial int, _ *rand.Rand) int {
			if trial == 5 {
				return explodeInTrial(trial)
			}
			return trial
		})
	})
	if pe == nil || pe.Trial != 5 {
		t.Fatalf("recovered %+v, want a *PanicError at trial 5", pe)
	}
	if msg := pe.Error(); !strings.Contains(msg, "explodeInTrial") {
		t.Fatalf("Error() = %q, want the stack of the trial, naming the helper that panicked", msg)
	}
}

// explodeInTrial panics in a frame of its own.
//
//go:noinline
func explodeInTrial(trial int) int {
	var empty []int
	return empty[trial]
}

// TestMapPanicSurfacesWithoutDeadlock pins that a panicking trial
// stops the feed and re-raises on the caller with the pool drained: no
// deadlock, no goroutine left behind. On one worker trials run in
// order, so exactly the trials up to the panicking one ran.
func TestMapPanicSurfacesWithoutDeadlock(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		var ran atomic.Int64
		done := make(chan *PanicError, 1)
		go func() {
			done <- catchPanic(func() {
				Map(Batch{Lo: 100, Hi: 300}, Options{Workers: workers}, nil, nil, func(_ struct{}, trial int, _ *rand.Rand) int {
					ran.Add(1)
					if trial == 123 {
						panic("kaboom")
					}
					return trial
				})
			})
		}()
		select {
		case pe := <-done:
			if pe == nil || pe.Trial != 123 {
				t.Fatalf("workers=%d: recovered %+v, want a *PanicError at trial 123", workers, pe)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: Map deadlocked after a panicking trial", workers)
		}
		if n := ran.Load(); workers == 1 && n != 24 {
			t.Fatalf("one worker ran %d trials, want the 24 up to the panic", n)
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("workers=%d: %d goroutines after the panic, %d before", workers, g, before)
		}
	}
}

// TestStressPanicUnderRace hammers the pool with many short runs, half
// of which panic mid-sweep, to give the race detector scheduling
// diversity. Must neither deadlock nor race; clean rounds must match
// the serial reference.
func TestStressPanicUnderRace(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for r := 0; r < rounds; r++ {
		panicky := r%2 == 0
		var out []uint64
		pe := catchPanic(func() {
			out = Map(Batch{Hi: 500}, Options{Workers: 8, BaseSeed: int64(r)}, nil, nil,
				func(_ struct{}, trial int, rng *rand.Rand) uint64 {
					if panicky && trial == 250 {
						panic("stress")
					}
					return draw(trial, rng)
				})
		})
		if panicky {
			if pe == nil || pe.Trial != 250 {
				t.Fatalf("round %d: recovered %v, want a *PanicError at trial 250", r, pe)
			}
			continue
		}
		if !reflect.DeepEqual(out, serialDraws(int64(r), 500)) {
			t.Fatalf("round %d diverged from the serial reference", r)
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
