package main

import (
	"testing"

	"zigzag/internal/core"
)

func TestFailedStreamFramesCountAsLost(t *testing.T) {
	offered := map[frameID]bool{{1, 0}: true, {2, 0}: true}
	streams := []*stream{{id: 0, offered: offered}, {id: 1, offered: offered}}
	ds := []*driven{
		{delivered: []frameID{{1, 0}}, stats: core.StreamStats{Bursts: 100}},
		// Frames delivered before the panic do not count.
		{delivered: []frameID{{1, 0}, {2, 0}}, stats: core.StreamStats{Bursts: 7}, failure: panicError{"boom"}},
	}
	tot, err := countDeliveries(streams, ds)
	if err != nil {
		t.Fatal(err)
	}
	if tot.distinct != 1 || tot.offered != 4 || tot.receptions != 100 {
		t.Errorf("distinct %d offered %d receptions %d; want 1, 4, 100", tot.distinct, tot.offered, tot.receptions)
	}
	if got := tot.loss(); got != 0.75 {
		t.Errorf("loss = %v, want 0.75", got)
	}
}

func TestCatchReturnsAPanicAsAnError(t *testing.T) {
	if err := catch(func() {}); err != nil {
		t.Fatalf("no panic: %v", err)
	}
	err := catch(func() { panic("boom") })
	if _, ok := err.(panicError); !ok {
		t.Fatalf("catch = %v, want a panicError", err)
	}
}
