// Package zigzag is a Go implementation of ZigZag decoding — the 802.11
// receiver design of Gollakota & Katabi (SIGCOMM 2008) that resolves
// hidden-terminal collisions by exploiting 802.11 retransmissions:
// successive collisions of the same packets arrive with different random
// offsets, and the receiver decodes them chunk by chunk, subtracting each
// decoded chunk's re-encoded image from the other collision.
//
// The package is a facade over the full system:
//
//   - a complex-baseband PHY (BPSK/QPSK/16-QAM, preamble correlation
//     sync, equalization, phase tracking) that serves as the black-box
//     decoder;
//   - a channel simulator with the paper's impairment model (flat
//     fading, carrier frequency offset, sampling offset, ISI, AWGN) and
//     a collision mixer;
//   - the ZigZag joint decoder (forward+backward passes with MRC, the
//     general N-collision greedy scheduler, capture/interference-
//     cancellation paths);
//   - an online receiver with collision detection, matching and a
//     collision store, plus a bounded-memory streaming surface
//     (Receiver.Ingest/Poll) that frames continuous I/Q into
//     receptions — the one-shot Receive is a thin wrapper over the
//     same pipeline;
//   - an 802.11 DCF simulator and a 14-node testbed harness that
//     regenerate the paper's evaluation.
//
// Quick start: see examples/quickstart, or:
//
//	cfg := zigzag.DefaultConfig()
//	res, err := zigzag.Decode(cfg, metas, []*zigzag.Reception{coll1, coll2})
//
// All randomness in the library is injected through seeds; everything is
// deterministic and reproducible.
package zigzag

import (
	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/dsp"
	"zigzag/internal/frame"
	"zigzag/internal/mac"
	"zigzag/internal/modem"
	"zigzag/internal/phy"
)

// Re-exported core types: the joint decoder.
type (
	// Config parameterizes the ZigZag decoder; use DefaultConfig.
	Config = core.Config
	// Reception is one stored collision (samples + detected packets).
	Reception = core.Reception
	// Occurrence places a packet inside a reception.
	Occurrence = core.Occurrence
	// PacketMeta is the receiver's prior knowledge about a packet.
	PacketMeta = core.PacketMeta
	// Result is a joint-decode outcome.
	Result = core.Result
	// PacketResult is one packet's decode outcome.
	PacketResult = core.PacketResult
	// Receiver is the online ZigZag access point.
	Receiver = core.Receiver
	// Client is the AP's per-sender coarse state.
	Client = core.Client
	// Event is one delivered packet from the online receiver.
	Event = core.Event
	// Via says which decode path delivered an Event.
	Via = core.Via
	// StreamConfig configures the receiver's streaming Ingest/Poll
	// front end (burst framing gate, window bound, pending-queue bound).
	StreamConfig = core.StreamConfig
	// StreamStats counts a streaming receiver's framing/shedding
	// activity.
	StreamStats = core.StreamStats
	// PollInfo locates a polled reception on the sample timeline.
	PollInfo = core.PollInfo
)

// Decode paths an Event can arrive through.
const (
	// ViaStandard is a plain single-packet decode.
	ViaStandard = core.ViaStandard
	// ViaZigzag is a joint decode of matched collisions.
	ViaZigzag = core.ViaZigzag
	// ViaCapture is a capture-effect/interference-cancellation decode
	// out of an unmatched collision.
	ViaCapture = core.ViaCapture
)

// Re-exported PHY types.
type (
	// PHYConfig holds modulation/synchronization parameters.
	PHYConfig = phy.Config
	// Transmitter renders frames to baseband waveforms.
	Transmitter = phy.Transmitter
	// Sync is a detected packet start with its channel estimate.
	Sync = phy.Sync
	// Synchronizer detects preambles by sliding correlation.
	Synchronizer = phy.Synchronizer
)

// Re-exported frame and channel types.
type (
	// Frame is an 802.11-style data frame.
	Frame = frame.Frame
	// ChannelParams models one link's impairments.
	ChannelParams = channel.Params
	// Air mixes colliding transmissions and adds noise.
	Air = channel.Air
	// Emission is one transmission placed on the air.
	Emission = channel.Emission
	// Scheme selects a modulation.
	Scheme = modem.Scheme
)

// Modulation schemes.
const (
	BPSK  = modem.BPSK
	QPSK  = modem.QPSK
	QAM16 = modem.QAM16
)

// DefaultConfig returns the decoder configuration used throughout the
// paper reproduction (2 samples/symbol, 32-bit preamble, forward and
// backward decoding with MRC).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultPHY returns the PHY configuration matching the prototype's GNU
// Radio parameters (§5.1c).
func DefaultPHY() PHYConfig { return phy.Default() }

// Decode jointly decodes a set of receptions containing the given
// packets: two matched collisions for the canonical hidden-terminal case,
// more for the §4.5 general case, or a single reception for the capture/
// interference-cancellation patterns.
func Decode(cfg Config, metas []PacketMeta, recs []*Reception) (*Result, error) {
	return core.Decode(cfg, metas, recs)
}

// NewReceiver builds the online ZigZag access point: standard decoding
// when there is no collision, collision detection/matching/joint
// decoding when there is.
func NewReceiver(cfg Config, clients []Client) *Receiver {
	return core.NewReceiver(cfg, clients)
}

// NewTransmitter builds a PHY transmitter.
func NewTransmitter(cfg PHYConfig) *Transmitter { return phy.NewTransmitter(cfg) }

// NewSynchronizer builds a preamble detector.
func NewSynchronizer(cfg PHYConfig) *Synchronizer { return phy.NewSynchronizer(cfg) }

// MatchCollisions decides whether two receptions contain the same packets
// (§4.2.2) and how their occurrences pair up.
func MatchCollisions(cfg Config, a, b *Reception) (core.MatchPairing, bool) {
	return core.MatchCollisions(cfg, a, b)
}

// TypicalISI returns the default multipath profile used by the
// evaluation; strength 1 reproduces the testbed distortion, 0 disables
// ISI.
func TypicalISI(strength float64) dsp.FIR { return channel.TypicalISI(strength) }

// SNRToGain converts a target SNR in dB (against the given noise power)
// to a channel amplitude.
func SNRToGain(snrDB, noisePower float64) float64 { return channel.SNRToGain(snrDB, noisePower) }

// AckOffsetBound returns the Lemma 4.4.1 analytic bound: the probability
// that two colliding 802.11g packets are offset enough for a synchronous
// ACK (≥ 0.9375).
func AckOffsetBound() float64 { return mac.AckOffsetBound() }
