package core

import (
	"math"
	"testing"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.maxChunk() != DefaultMaxChunkSymbols {
		t.Fatal("maxChunk default wrong")
	}
	if math.Abs(captureRatio-10) > 1e-9 {
		t.Fatalf("captureRatio = %v, want 10 (10 dB)", captureRatio)
	}
}

// TestConfigOverrides pins that MaxChunkSymbols, the one tuning field
// (BenchmarkAblationChunkSize sweeps it), overrides its default.
func TestConfigOverrides(t *testing.T) {
	c := Config{MaxChunkSymbols: 99}
	if c.maxChunk() != 99 {
		t.Fatal("MaxChunkSymbols override ignored")
	}
}

func TestPacketResultHelpers(t *testing.T) {
	var pr PacketResult
	if pr.OK() {
		t.Fatal("zero PacketResult should not be OK")
	}
	var res Result
	if !res.AllOK() {
		t.Fatal("empty result is vacuously OK")
	}
	res.Packets = append(res.Packets, PacketResult{})
	if res.AllOK() {
		t.Fatal("failed packet should break AllOK")
	}
}
