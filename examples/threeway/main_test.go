package main

import (
	"bytes"
	"testing"
)

// TestThreeWayDecodesAllPayloads is the example-level smoke test: the
// demo's three three-packet collisions must yield all three payloads
// through the online receiver, with the first two collisions stored
// (undecodable alone) and the store drained by the third.
func TestThreeWayDecodesAllPayloads(t *testing.T) {
	out, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if out.stored != [3]int{1, 2, 0} {
		t.Errorf("store depths after each collision = %v, want [1 2 0]", out.stored)
	}
	for _, name := range names {
		p, ok := out.payloads[name]
		if !ok {
			t.Fatalf("%s's packet was never decoded (got %d of 3)", name, len(out.payloads))
		}
		want := []byte(name + "'s packet")
		if !bytes.HasPrefix(p, want) {
			t.Errorf("%s's payload starts %q, want prefix %q", name, p[:min(len(p), 16)], want)
		}
		if out.decodedOn[name] != 3 {
			t.Errorf("%s decoded on collision %d, want 3 (joint k=3 decode)", name, out.decodedOn[name])
		}
	}
}
