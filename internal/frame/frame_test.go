package frame

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"zigzag/internal/modem"
)

func randFrame(r *rand.Rand, payloadLen int) *Frame {
	p := make([]byte, payloadLen)
	r.Read(p)
	return &Frame{
		Src:     uint8(r.Intn(256)),
		Dst:     uint8(r.Intn(256)),
		Seq:     uint16(r.Intn(1 << 16)),
		Retry:   r.Intn(2) == 1,
		Scheme:  modem.BPSK,
		Payload: p,
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 17, 256, 1500} {
		f := randFrame(r, n)
		bits, err := f.Bits(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(bits) != f.BitLen() {
			t.Fatalf("BitLen %d != encoded %d", f.BitLen(), len(bits))
		}
		got, err := Parse(bits)
		if err != nil {
			t.Fatalf("payload %d: %v", n, err)
		}
		if !SamePacket(f, got) || got.Retry != f.Retry {
			t.Fatalf("round trip mismatch: %v vs %v", f, got)
		}
	}
}

func TestParseToleratesTrailingBits(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := randFrame(r, 40)
	bits, _ := f.Bits(nil)
	bits = append(bits, 1, 0, 1, 1, 0) // PHY padding
	got, err := Parse(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !SamePacket(f, got) {
		t.Fatal("padded parse mismatch")
	}
}

func TestParseDetectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := randFrame(r, 64)
	bits, _ := f.Bits(nil)
	for _, pos := range []int{0, 5, HeaderBits + 3, len(bits) - 1} {
		bits[pos] ^= 1
		if _, err := Parse(bits); err == nil {
			t.Fatalf("corruption at bit %d undetected", pos)
		}
		bits[pos] ^= 1
	}
}

// TestCheckAgreesWithParse pins Check as Parse's verdict without the
// Frame: every bit flip of a valid frame, truncations, padding and a
// non-binary payload bit get the same answer from both, and Check
// allocates nothing whether the frame passes or fails.
func TestCheckAgreesWithParse(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := randFrame(r, 24)
	bits, _ := f.Bits(nil)
	agree := func(what string, b []byte) {
		t.Helper()
		_, err := Parse(b)
		if got := Check(b); got != (err == nil) {
			t.Fatalf("%s: Check = %v, Parse error = %v", what, got, err)
		}
	}
	agree("valid", bits)
	agree("padded", append(append([]byte(nil), bits...), 1, 0, 1))
	agree("truncated", bits[:len(bits)-1])
	agree("header only", bits[:HeaderBits])
	for pos := range bits {
		bits[pos] ^= 1
		agree("flipped", bits)
		bits[pos] ^= 1
	}
	bits[HeaderBits+5] += 2 // same CRC (it reads bit&1), but not a bit
	agree("non-binary payload", bits)
	bits[HeaderBits+5] -= 2
	bad := append([]byte(nil), bits...)
	bad[len(bad)-1] ^= 1
	if n := testing.AllocsPerRun(20, func() { Check(bits); Check(bad) }); n != 0 {
		t.Fatalf("Check allocates %v per call pair", n)
	}
}

func TestParseShort(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); !errors.Is(err, ErrShort) {
		t.Fatalf("err = %v, want ErrShort", err)
	}
	r := rand.New(rand.NewSource(4))
	f := randFrame(r, 100)
	bits, _ := f.Bits(nil)
	if _, err := Parse(bits[:len(bits)-8]); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated err = %v, want ErrShort", err)
	}
}

func TestEncodeRejectsBadFrames(t *testing.T) {
	f := &Frame{Payload: make([]byte, MaxPayload+1), Scheme: modem.BPSK}
	if _, err := f.Bits(nil); !errors.Is(err, ErrBadField) {
		t.Fatalf("oversized payload err = %v", err)
	}
	g := &Frame{Scheme: modem.Scheme(200)}
	if _, err := g.Bits(nil); !errors.Is(err, ErrBadField) {
		t.Fatalf("bad scheme err = %v", err)
	}
}

func TestPeekLength(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := randFrame(r, 321)
	bits, _ := f.Bits(nil)
	n, err := PeekLength(bits)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(bits) {
		t.Fatalf("PeekLength = %d, want %d", n, len(bits))
	}
	if _, err := PeekLength(bits[:HeaderBits-1]); !errors.Is(err, ErrShort) {
		t.Fatal("short peek should error")
	}
}

func TestSamePacketIgnoresRetry(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := randFrame(r, 30)
	g := f.Retransmission()
	if !g.Retry {
		t.Fatal("Retransmission must set Retry")
	}
	if !SamePacket(f, g) {
		t.Fatal("retry flag must not affect SamePacket")
	}
	// Mutating the copy's payload must not affect the original.
	g.Payload[0] ^= 0xff
	if SamePacket(f, g) {
		t.Fatal("payload mutation should break SamePacket")
	}
}

func TestPreambleProperties(t *testing.T) {
	p := Preamble()
	if len(p) != DefaultPreambleBits {
		t.Fatalf("preamble length %d", len(p))
	}
	q := Preamble()
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("preamble must be deterministic")
		}
	}
	if len(PreambleN(128)) != 128 {
		t.Fatal("PreambleN length wrong")
	}
	// Preamble must start identically for any length (it's the same PN
	// stream), so a longer sync word extends the short one.
	long := PreambleN(64)
	for i := range p {
		if long[i] != p[i] {
			t.Fatal("PreambleN must extend Preamble")
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(src, dst uint8, seq uint16, retry bool, n uint16) bool {
		fr := &Frame{
			Src: src, Dst: dst, Seq: seq, Retry: retry,
			Scheme:  modem.QPSK,
			Payload: make([]byte, int(n)%512),
		}
		r.Read(fr.Payload)
		bits, err := fr.Bits(nil)
		if err != nil {
			return false
		}
		got, err := Parse(bits)
		if err != nil {
			return false
		}
		return SamePacket(fr, got) && got.Retry == fr.Retry && got.Scheme == modem.QPSK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{Src: 1, Dst: 2, Seq: 7, Retry: true, Scheme: modem.BPSK, Payload: make([]byte, 3)}
	if s := f.String(); s == "" {
		t.Fatal("empty String()")
	}
}
