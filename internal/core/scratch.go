package core

import (
	"zigzag/internal/dsp"
	"zigzag/internal/modem"
	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// Scratch is the reusable state of a decode session: the synchronizer,
// the per-packet/per-reception state arenas, the residual buffers, and
// pools of Modelers and SymbolDecoders recycled through their Reinit
// lifecycle. A Monte-Carlo worker owns one Scratch and threads it
// through every DecodeWith call it makes; after the first few trials
// have grown the arenas to steady-state size, a joint decode allocates
// only its caller-visible Result.
//
// The recycling discipline is counter-based: every pooled object handed
// out during one DecodeWith call is implicitly reclaimed when the next
// call resets the counters. Consequently the previous call's Result
// remains valid — its Packets own their memory — but its Residuals
// alias the scratch residual buffers and are overwritten by the next
// DecodeWith on the same Scratch.
//
// A Scratch must not be shared by concurrent goroutines. The zero value
// is ready to use; bit-identity with scratch-free decoding is pinned by
// the decode-session tests.
type Scratch struct {
	// Obs, when non-nil, receives the decoder's chunk-level events
	// (schedule picks, peel commits, forced-capture fallbacks), stamped
	// with ObsRec as their reception sequence. The online receiver
	// threads its own sink through here before each decode; the fields
	// are read at newDecoder time, so they apply per DecodeWith call.
	Obs    obs.Sink
	ObsRec int64

	dec decoder

	syncCfg phy.Config
	sync    *phy.Synchronizer
	preCfg  phy.Config
	preSyms []complex128

	pkts []*pktState
	recs []*recState
	occs []*occState
	occN int

	modelers []*phy.Modeler
	modN     int
	decoders []*phy.SymbolDecoder
	decN     int
}

// synchronizer returns the session synchronizer, rebuilt only when the
// PHY configuration changes between calls.
func (sc *Scratch) synchronizer(cfg phy.Config) *phy.Synchronizer {
	if sc.sync == nil || sc.syncCfg != cfg {
		sc.sync = phy.NewSynchronizer(cfg)
		sc.syncCfg = cfg
	}
	return sc.sync
}

// preambleSymbols returns the cached preamble constellation for cfg.
func (sc *Scratch) preambleSymbols(cfg phy.Config) []complex128 {
	if sc.preSyms == nil || sc.preCfg != cfg {
		sc.preSyms = cfg.PreambleSymbols()
		sc.preCfg = cfg
	}
	return sc.preSyms
}

// pkt returns packet state i, reset to its zero state with all slice
// capacity retained.
func (sc *Scratch) pkt(i int) *pktState {
	var p *pktState
	if i < len(sc.pkts) {
		p = sc.pkts[i]
	} else {
		p = &pktState{}
		sc.pkts = append(sc.pkts, p)
	}
	*p = pktState{
		decided: p.decided[:0], chips: p.chips[:0], soft: p.soft[:0], weight: p.weight[:0],
		decidedB: p.decidedB[:0], chipsB: p.chipsB[:0], softB: p.softB[:0], weightB: p.weightB[:0],
		shape:   dsp.FIR{Taps: p.shape.Taps[:0]},
		fwdBits: p.fwdBits[:0],
	}
	return p
}

// rec returns reception state i, reset with residual-buffer capacity
// retained.
func (sc *Scratch) rec(i int) *recState {
	var r *recState
	if i < len(sc.recs) {
		r = sc.recs[i]
	} else {
		r = &recState{}
		sc.recs = append(sc.recs, r)
	}
	*r = recState{res: r.res[:0], resB: r.resB[:0], occs: r.occs[:0]}
	return r
}

// occ returns the next occurrence state of this decode, reset with span
// capacity retained.
func (sc *Scratch) occ() *occState {
	var o *occState
	if sc.occN < len(sc.occs) {
		o = sc.occs[sc.occN]
	} else {
		o = &occState{}
		sc.occs = append(sc.occs, o)
	}
	sc.occN++
	*o = occState{spans: o.spans[:0], spansB: o.spansB[:0]}
	return o
}

// modeler hands out a pooled re-encoder, recycled through
// phy.Modeler.Reinit.
func (sc *Scratch) modeler(cfg phy.Config, s phy.Sync) *phy.Modeler {
	if sc.modN < len(sc.modelers) {
		m := sc.modelers[sc.modN]
		sc.modN++
		m.Reinit(cfg, s)
		return m
	}
	m := phy.NewModeler(cfg, s)
	sc.modelers = append(sc.modelers, m)
	sc.modN++
	return m
}

// symbolDecoder hands out a pooled black-box decoder, recycled through
// phy.SymbolDecoder.Reinit. Forked decoders (WithSync/Fork) are not
// pooled: their lifetime is tied to borrowed equalizer state.
func (sc *Scratch) symbolDecoder(cfg phy.Config, s phy.Sync, scheme modem.Scheme) *phy.SymbolDecoder {
	if sc.decN < len(sc.decoders) {
		d := sc.decoders[sc.decN]
		sc.decN++
		d.Reinit(cfg, s, scheme)
		return d
	}
	d := phy.NewSymbolDecoder(cfg, s, scheme)
	sc.decoders = append(sc.decoders, d)
	sc.decN++
	return d
}

// growZeroC zero-extends a complex slice to n elements, reusing
// capacity and growing geometrically when it must reallocate.
func growZeroC(s []complex128, n int) []complex128 {
	if n <= len(s) {
		return s
	}
	if cap(s) >= n {
		t := s[len(s):n]
		for i := range t {
			t[i] = 0
		}
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	out := make([]complex128, n, c)
	copy(out, s)
	return out
}

// growZeroF is growZeroC for float64 slices.
func growZeroF(s []float64, n int) []float64 {
	if n <= len(s) {
		return s
	}
	if cap(s) >= n {
		t := s[len(s):n]
		for i := range t {
			t[i] = 0
		}
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	out := make([]float64, n, c)
	copy(out, s)
	return out
}
