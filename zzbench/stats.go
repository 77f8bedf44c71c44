package main

import (
	"fmt"
	"runtime"
	"sort"
)

// median returns the median of xs (the mean of the middle two for an
// even count); xs is left unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond returns how many of n samples rank above the nearest-rank
// quantile at permille/1000. serve-live reports its p90 latency because
// every seed leaves at least ten receptions beyond it. Integer
// arithmetic, so that 100 samples leave exactly ten beyond p90.
func beyond(n, permille int) int {
	return n - (permille*n+999)/1000
}

// frameID names one offered frame on a synthetic stream.
type frameID struct {
	src uint8
	seq uint16
}

// frameLoss compares the frames a receiver delivered (in delivery
// order, duplicates included) with the frames offered. It returns the
// number of distinct offered frames delivered and the number of
// duplicate deliveries. A delivered frame that was never offered is an
// error.
func frameLoss(offered map[frameID]bool, delivered []frameID) (distinct, duplicates int, err error) {
	seen := make(map[frameID]bool, len(delivered))
	for _, id := range delivered {
		if !offered[id] {
			return 0, 0, fmt.Errorf("delivered frame src %d seq %d was never offered", id.src, id.seq)
		}
		if seen[id] {
			duplicates++
			continue
		}
		seen[id] = true
	}
	return len(seen), duplicates, nil
}

// retainedHeapMB forces two collections and returns the live heap in
// MB. serve-live's pre-rendered input is mapped outside the heap, so it
// does not count.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
