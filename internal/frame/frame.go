// Package frame implements the 802.11-style framing used throughout the
// reproduction: a known pseudo-random preamble, a compact PLCP-like
// header (addresses, sequence number, retry flag, rate, length), the
// payload, and a 32-bit CRC. It matches the prototype's packet layout of
// "a 32-bit preamble, a 1500-byte payload, and 32-bit CRC" (§5.1c) while
// adding the header fields the MAC behaviour depends on — most
// importantly the retry flag, since the paper notes that two collisions
// of the same packet are "the same except for noise and the
// retransmission flag in the 802.11 header" (§4.2.2).
package frame

import (
	"bytes"
	"errors"
	"fmt"

	"zigzag/internal/bitutil"
	"zigzag/internal/modem"
)

// DefaultPreambleBits is the preamble length in bits (§5.1c).
const DefaultPreambleBits = 32

// DefaultPreambleSeed seeds the LFSR that generates the shared preamble.
// Every node uses the same known preamble, as in 802.11.
const DefaultPreambleSeed uint16 = 0x35b1

// HeaderBits is the size of the encoded header in bits:
// Src(8) + Dst(8) + Seq(16) + Flags(8) + Rate(8) + Length(16) +
// Check(8). The trailing check byte protects the header alone — like the
// parity bit of 802.11's PLCP SIGNAL field, it lets a receiver reject a
// corrupt length before committing to a bogus frame extent.
const HeaderBits = 72

// CRCBits is the size of the trailing checksum in bits.
const CRCBits = 32

// MaxPayload is the largest payload Encode accepts, matching Ethernet/
// 802.11 MTU conventions.
const MaxPayload = 2304

// Flag bits within the Flags field.
const (
	// FlagRetry marks a retransmission, mirroring 802.11's Retry bit.
	FlagRetry = 1 << 0
)

// Errors returned by the parser.
var (
	ErrShort    = errors.New("frame: bit stream too short")
	ErrCRC      = errors.New("frame: CRC mismatch")
	ErrHeader   = errors.New("frame: header check mismatch")
	ErrBadField = errors.New("frame: invalid header field")
)

// headerCheck folds the CRC-32 of the first 64 header bits into one
// check byte.
func headerCheck(first64 []byte) byte {
	c := bitutil.CRC32(first64[:64])
	return byte(c) ^ byte(c>>8) ^ byte(c>>16) ^ byte(c>>24)
}

// Frame is one 802.11-style data frame.
type Frame struct {
	Src     uint8        // transmitting node id
	Dst     uint8        // receiving node id (the AP)
	Seq     uint16       // MAC sequence number
	Retry   bool         // 802.11 Retry bit: set on retransmissions
	Scheme  modem.Scheme // modulation the payload is sent at
	Payload []byte
}

// Preamble returns the shared known preamble bit sequence.
func Preamble() []byte {
	return bitutil.PN(DefaultPreambleSeed, DefaultPreambleBits)
}

// PreambleN returns a preamble of n bits (for experiments that sweep the
// preamble length).
func PreambleN(n int) []byte {
	return bitutil.PN(DefaultPreambleSeed, n)
}

// BitLen returns the number of bits the encoded frame occupies
// (header + payload + CRC, excluding the preamble).
func (f *Frame) BitLen() int {
	return HeaderBits + 8*len(f.Payload) + CRCBits
}

// Bits encodes the frame (header, payload, CRC) as a bit slice, excluding
// the preamble, appending to dst.
func (f *Frame) Bits(dst []byte) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds %d", ErrBadField, len(f.Payload), MaxPayload)
	}
	if f.Scheme != modem.BPSK && f.Scheme != modem.QPSK && f.Scheme != modem.QAM16 {
		return nil, fmt.Errorf("%w: unknown scheme %d", ErrBadField, f.Scheme)
	}
	start := len(dst)
	dst = bitutil.BytesToBits(dst, []byte{f.Src, f.Dst})
	dst = bitutil.PutUint16(dst, f.Seq)
	var flags byte
	if f.Retry {
		flags |= FlagRetry
	}
	dst = bitutil.BytesToBits(dst, []byte{flags, byte(f.Scheme)})
	dst = bitutil.PutUint16(dst, uint16(len(f.Payload)))
	dst = bitutil.BytesToBits(dst, []byte{headerCheck(dst[start:])})
	dst = bitutil.BytesToBits(dst, f.Payload)
	crc := bitutil.CRC32(dst[start:])
	dst = bitutil.PutUint32(dst, crc)
	return dst, nil
}

// Parse decodes a frame from bits. It needs at least HeaderBits to read
// the length field, then exactly the announced payload plus CRC. Extra
// trailing bits are ignored (the PHY hands over a slightly padded
// symbol-aligned stream). The returned frame shares no memory with bits.
func Parse(bits []byte) (*Frame, error) {
	plen, err := check(bits)
	if err != nil {
		return nil, err
	}
	var f Frame
	f.Src = byteAt(bits, 0)
	f.Dst = byteAt(bits, 8)
	f.Seq = bitutil.Uint16(bits[16:])
	f.Retry = byteAt(bits, 32)&FlagRetry != 0
	f.Scheme = modem.Scheme(byteAt(bits, 40))
	payload, err := bitutil.BitsToBytes(bits[HeaderBits : HeaderBits+8*plen])
	if err != nil {
		return nil, err
	}
	f.Payload = payload
	return &f, nil
}

// Check reports whether Parse accepts bits, building no Frame: the
// decoder screens a candidate's checksum with it before it decides
// whether a second decoding pass can matter.
func Check(bits []byte) bool {
	plen, err := check(bits)
	if err != nil {
		return false
	}
	for _, b := range bits[HeaderBits : HeaderBits+8*plen] {
		if b > 1 {
			return false // BitsToBytes rejects a non-binary payload
		}
	}
	return true
}

// check makes Parse's checks on bits — length, header check byte, rate
// and length fields, CRC — and returns the payload length in bytes.
func check(bits []byte) (plen int, err error) {
	if len(bits) < HeaderBits+CRCBits {
		return 0, ErrShort
	}
	if byteAt(bits, 64) != headerCheck(bits) {
		return 0, ErrHeader
	}
	rate := byteAt(bits, 40)
	switch modem.Scheme(rate) {
	case modem.BPSK, modem.QPSK, modem.QAM16:
	default:
		return 0, fmt.Errorf("%w: rate %d", ErrBadField, rate)
	}
	plen = int(bitutil.Uint16(bits[48:]))
	if plen > MaxPayload {
		return 0, fmt.Errorf("%w: length %d", ErrBadField, plen)
	}
	total := HeaderBits + 8*plen + CRCBits
	if len(bits) < total {
		return 0, ErrShort
	}
	if bitutil.CRC32(bits[:HeaderBits+8*plen]) != bitutil.Uint32(bits[HeaderBits+8*plen:]) {
		return 0, ErrCRC
	}
	return plen, nil
}

// PeekLength reads only the header's length field (no CRC validation) and
// returns the full frame bit length it announces. The PHY uses it to know
// how many symbols a detected packet spans before the frame is complete.
func PeekLength(bits []byte) (int, error) {
	if len(bits) < HeaderBits {
		return 0, ErrShort
	}
	if byteAt(bits, 64) != headerCheck(bits) {
		return 0, ErrHeader
	}
	plen := int(bitutil.Uint16(bits[48:]))
	if plen > MaxPayload {
		return 0, fmt.Errorf("%w: length %d", ErrBadField, plen)
	}
	return HeaderBits + 8*plen + CRCBits, nil
}

// SamePacket reports whether two frames carry the same MAC packet: equal
// addressing, sequence number and payload, ignoring the Retry flag. This
// is the ground-truth notion behind "matching collisions" (§4.2.2).
func SamePacket(a, b *Frame) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Seq == b.Seq &&
		a.Scheme == b.Scheme && bytes.Equal(a.Payload, b.Payload)
}

// Retransmission returns a copy of f with the Retry flag set, as an
// 802.11 sender would emit after a missing ACK.
func (f *Frame) Retransmission() *Frame {
	c := *f
	c.Retry = true
	c.Payload = append([]byte(nil), f.Payload...)
	return &c
}

// String renders a short summary for logs and test failures.
func (f *Frame) String() string {
	retry := ""
	if f.Retry {
		retry = " retry"
	}
	return fmt.Sprintf("frame{%d→%d seq=%d %v %dB%s}", f.Src, f.Dst, f.Seq, f.Scheme, len(f.Payload), retry)
}

func byteAt(bits []byte, off int) byte {
	var v byte
	for i := 0; i < 8; i++ {
		v = v<<1 | bits[off+i]&1
	}
	return v
}
