package core

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/fft"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// Client is the AP's per-sender state: the modulation the client uses
// and the coarse channel knowledge a real AP accumulates from prior
// interference-free packets (association, past data) per §4.2.1/§4.2.4.
type Client struct {
	ID     uint8
	Scheme modem.Scheme
	// Freq is the coarse carrier-frequency-offset estimate in radians
	// per sample.
	Freq float64
	// Amp is the coarse channel amplitude |H|; 0 means unknown (the
	// detector then uses a permissive threshold).
	Amp float64
}

// Event is one delivered or failed packet from the online receiver.
type Event struct {
	Frame  *frame.Frame // nil if undecodable
	Client uint8        // sender, when known
	// Via tells how the packet was obtained (ViaStandard, ViaZigzag,
	// ViaCapture).
	Via Via
	// Result carries the joint-decode detail when Via != ViaStandard.
	Result *PacketResult
}

// Receiver is the online ZigZag access point (§5.1d): it attempts
// standard decoding first, detects collisions by preamble correlation,
// matches them against stored collisions, and jointly decodes matching
// pairs. In the absence of collisions it behaves exactly like a current
// 802.11 receiver.
type Receiver struct {
	cfg     Config
	phy     *phy.Receiver
	sync    *phy.Synchronizer
	clients map[uint8]Client
	// ids lists the client IDs in ascending order: detection and
	// redetection visit clients in this order, never in map order.
	ids []uint8

	// loc is the wide-window store matcher's working storage
	// (LocatePacket: the fresh reception's transforms and rolling
	// energy, profile, scores); the preamble detector's scratch lives
	// inside sync, det holds the collision detector's
	// clustering/assignment arenas, and dec is the joint-decoder session
	// threaded through every Decode this receiver runs. Receivers are
	// single-goroutine, so the buffers are reused across receptions
	// without locking.
	loc locateScratch
	det detectScratch
	dec Scratch

	// MaxStored bounds the unmatched-collision store; 802.11
	// retransmissions arrive promptly, so a few suffice (§4.2.2).
	MaxStored int

	// SkipStoreMatch, when set, disables the stored-collision matching
	// paths (the pairwise loop and the k-way assembly): collisions are
	// still stored and capture-effect packets still delivered, but no
	// joint decode is attempted. The streaming engine's degraded
	// load-shedding mode flips this under overload — the O(stored ×
	// align) matching is the receiver's most expensive path, and a
	// receiver falling behind a live stream is better off decoding what
	// capture can than stalling on joint decodes (cf. the
	// adapt-instead-of-match-rates discipline). Reinit clears it.
	SkipStoreMatch bool

	// Obs, when non-nil, receives the typed decode event stream:
	// detection, store matching, chunk scheduling, peel outcomes,
	// amplitude aging (see obs.Kind). With Obs nil the instrumented
	// paths cost one nil check and allocate nothing.
	// Preserved across Reinit — observers on pooled sessions survive
	// receiver recycling.
	Obs obs.Sink

	// StreamStamp, when non-nil, is sampled as each reception is framed
	// by Ingest and carried into the matching PollInfo.Stamp (a
	// monotonic-clock hook for framed→decoded latency measurement; the
	// core never reads a clock itself). Reinit clears it.
	StreamStamp func() int64

	// stream is the Ingest/Poll front end (see ingest.go); pollEvs is
	// Poll's receiver-owned accumulation buffer.
	stream  streamState
	pollEvs []Event

	stored []*storedCollision
	// stFree recycles evicted/consumed stored-collision entries together
	// with their sample and occurrence buffers.
	stFree []*storedCollision

	// recSeq counts receptions; ampStamp records, per client ID, the
	// recSeq at which the coarse amplitude was last refreshed. Together
	// they drive the aging of learned |H| estimates (see ampAging): a
	// channel estimate from many receptions ago must not keep vetoing
	// detections after the channel has moved.
	recSeq   int
	ampStamp [256]int

	// Receiver-owned scratch for the per-reception hot path (receivers
	// are single-goroutine): metaFor's metadata slice, the
	// single-reception decode Receptions (ping-ponged, because a
	// rejected redetect round must not clobber the kept reception), the
	// redetect working sets, and the delivered event list. Returned
	// events are valid until the next Receive.
	metas     []PacketMeta
	srRecs    [2]Reception
	srFlip    int
	srList    [1]*Reception
	rdOccs    []Occurrence
	rdClients []uint8
	rdOk      []int
	evBuf     []Event
	// kwMatch indexes the stored collisions assembled by the k-way
	// store matcher.
	kwMatch []int
	// joint and pair are the pairwise store matcher's aligned fresh
	// reception and decode list.
	joint Reception
	pair  [2]*Reception
}

// obsOn reports whether an observer is attached; emission sites guard
// on it so the disabled path is a nil check — no event construction, no
// operand formatting, no allocation.
func (z *Receiver) obsOn() bool { return z.Obs != nil }

// emit publishes one decode event, stamped with the current reception
// sequence.
func (z *Receiver) emit(ev obs.Event) {
	ev.Rec = int64(z.recSeq)
	if z.Obs != nil {
		z.Obs.Emit(ev)
	}
}

// errStr pre-formats an error for an event's Str operand the way %v
// prints it ("<nil>" for nil); called only with an observer attached.
func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// appendPositions fills an event list with occurrence RefPos values.
func appendPositions(ev *obs.Event, occs []Occurrence) {
	for i := range occs {
		ev.AppendList(occs[i].Sync.RefPos)
	}
}

// appendClients fills an event list with a client assignment (the %v of
// a []uint8 and of the event's []int render identically, which keeps
// the legacy k-way lines bit-exact).
func appendClients(ev *obs.Event, ids []uint8) {
	for _, id := range ids {
		ev.AppendList(int(id))
	}
}

type storedCollision struct {
	rec     *Reception
	clients []uint8      // per occurrence
	buf     []complex128 // receiver-owned backing of rec.Samples
	occs    []Occurrence // receiver-owned backing of rec.Packets
	// wins caches, per occurrence, the wide-window locator's reference
	// with its spectra, built on the first lookup and kept while the
	// entry is stored; store drops them when it recycles the entry. A
	// transient view (the k-way assembly's) has none and looks up with
	// one-shot references.
	wins []storedWindow
}

// storedWindow is one stored packet's locator window.
type storedWindow struct {
	set  bool // ref and skip are built
	ref  fft.Reference
	skip int
}

// NewReceiver builds an online ZigZag receiver.
func NewReceiver(cfg Config, clients []Client) *Receiver {
	z := &Receiver{}
	z.Reinit(cfg, clients)
	return z
}

// Reinit resets the receiver to the state NewReceiver(cfg, clients)
// would build — client table rebuilt, collision store emptied,
// MaxStored back to its default — while keeping all working storage
// (locator/synchronizer scratch, the decode session, stored-collision
// buffers). The attached observer (Obs) is preserved: pooled
// simulation sessions recycle receivers across Monte-Carlo trials
// through this, and a Reset must not silently detach whoever is
// watching the decode stream.
func (z *Receiver) Reinit(cfg Config, clients []Client) {
	if z.phy == nil || z.cfg.PHY != cfg.PHY {
		z.phy = phy.NewReceiver(cfg.PHY)
		z.sync = phy.NewSynchronizer(cfg.PHY)
	}
	z.cfg = cfg
	if z.clients == nil {
		z.clients = make(map[uint8]Client, len(clients))
	} else {
		clear(z.clients)
	}
	z.ids = z.ids[:0]
	for _, c := range clients {
		z.addClient(c)
	}
	z.MaxStored = 4
	z.SkipStoreMatch = false
	z.resetStream()
	for i := range z.stored {
		z.stFree = append(z.stFree, z.stored[i])
		z.stored[i] = nil
	}
	z.stored = z.stored[:0]
	z.recSeq = 0
	z.ampStamp = [256]int{}
}

// addClient inserts or replaces a client, keeping ids sorted.
func (z *Receiver) addClient(c Client) {
	if _, ok := z.clients[c.ID]; !ok {
		i, _ := slices.BinarySearch(z.ids, c.ID)
		z.ids = slices.Insert(z.ids, i, c.ID)
	}
	z.clients[c.ID] = c
}

// StoredCollisions reports how many unmatched collisions are held.
func (z *Receiver) StoredCollisions() int { return len(z.stored) }

// detHit is one thresholded preamble detection attributed to a client.
type detHit struct {
	sync   phy.Sync
	client uint8
}

// detCluster groups hits within half a preamble of one position; best
// keeps the strongest sync per client (few clients — linear scan).
type detCluster struct {
	pos  int
	best []detHit
}

// detCand is one (cluster, client) assignment candidate.
type detCand struct {
	ci   int
	best detHit
}

// detectScratch is the collision detector's reusable working storage:
// the hit list, the position clusters (whose inner best lists recycle
// their backing arrays), the assignment candidates and used-marks, and
// the returned occurrence/client views. Everything is truncated and
// rewritten per reception, so a steady-state detect allocates nothing
// (AllocsPerRun-pinned).
type detectScratch struct {
	hits       []detHit
	clusters   []detCluster
	cands      []detCand
	usedClust  []bool
	usedClient [256]bool
	picks      []detHit
	occs       []Occurrence
	clients    []uint8
}

// detect finds all packet starts in the buffer and associates each with
// a client. Every client shares the same preamble, so a strong packet
// spikes in *every* client's frequency-compensated profile; detection
// therefore clusters spikes by position and solves a small assignment
// problem: positions and clients are paired greedily by correlation
// magnitude, each used at most once (a client transmits at most one
// packet per reception window).
//
// The returned slices are views into the receiver's detect scratch,
// valid until the next detect on this receiver; paths that retain them
// (the collision store, the redetect extension) copy first.
func (z *Receiver) detect(rx []complex128) ([]Occurrence, []uint8) {
	d := &z.det
	preLen := z.cfg.PHY.PreambleBits * z.cfg.PHY.SamplesPerSymbol
	d.hits = d.hits[:0]
	z.sync.Load(rx) // every client's search shares one transform of rx
	for _, id := range z.ids {
		for _, s := range z.detectClient(rx, z.clients[id]) {
			d.hits = append(d.hits, detHit{s, id})
		}
	}
	if len(d.hits) == 0 {
		return nil, nil
	}
	// Cluster by position. The client tiebreak pins the order when two
	// clients spike at the same sample; equal positions land in the same
	// cluster either way.
	slices.SortFunc(d.hits, func(a, b detHit) int {
		if c := cmp.Compare(a.sync.RefPos, b.sync.RefPos); c != 0 {
			return c
		}
		return cmp.Compare(a.client, b.client)
	})
	clusters := d.clusters
	for i := range clusters {
		clusters[i].best = clusters[i].best[:0] // recycle inner arrays
	}
	clusters = clusters[:0]
	for _, h := range d.hits {
		if n := len(clusters); n > 0 && h.sync.RefPos-clusters[n-1].pos < preLen/2 {
			c := &clusters[n-1]
			found := false
			for bi := range c.best {
				if c.best[bi].client == h.client {
					if h.sync.Mag > c.best[bi].sync.Mag {
						c.best[bi].sync = h.sync
					}
					found = true
					break
				}
			}
			if !found {
				c.best = append(c.best, h)
			}
			continue
		}
		if n := len(clusters); n < cap(clusters) {
			clusters = clusters[:n+1]
			clusters[n].pos = h.sync.RefPos
			clusters[n].best = append(clusters[n].best[:0], h)
		} else {
			clusters = append(clusters, detCluster{pos: h.sync.RefPos, best: []detHit{h}})
		}
	}
	d.clusters = clusters
	// Greedy unique assignment by magnitude.
	d.cands = d.cands[:0]
	for ci := range clusters {
		for _, b := range clusters[ci].best {
			d.cands = append(d.cands, detCand{ci, b})
		}
	}
	slices.SortFunc(d.cands, func(a, b detCand) int {
		if c := cmp.Compare(b.best.sync.Mag, a.best.sync.Mag); c != 0 {
			return c // descending magnitude
		}
		if c := cmp.Compare(a.ci, b.ci); c != 0 {
			return c
		}
		return cmp.Compare(a.best.client, b.best.client)
	})
	if cap(d.usedClust) < len(clusters) {
		d.usedClust = make([]bool, len(clusters))
	}
	d.usedClust = d.usedClust[:len(clusters)]
	for i := range d.usedClust {
		d.usedClust[i] = false
	}
	d.usedClient = [256]bool{}
	d.picks = d.picks[:0]
	for _, c := range d.cands {
		if d.usedClust[c.ci] || d.usedClient[c.best.client] {
			continue
		}
		d.usedClust[c.ci] = true
		d.usedClient[c.best.client] = true
		d.picks = append(d.picks, c.best)
	}
	slices.SortFunc(d.picks, func(a, b detHit) int { return cmp.Compare(a.sync.RefPos, b.sync.RefPos) })
	d.occs = d.occs[:0]
	d.clients = d.clients[:0]
	for _, p := range d.picks {
		d.occs = append(d.occs, Occurrence{Sync: p.sync})
		d.clients = append(d.clients, p.client)
	}
	return d.occs, d.clients
}

// Coarse-amplitude aging: the learned |H| is trusted fully for a few
// receptions, then its detection bounds relax exponentially with every
// further reception that fails to refresh it, and eventually the
// estimate is treated as unknown. Without this, a decode that succeeded
// before a fade leaves an Amp whose β·|Ĥ|·E threshold sits above the
// faded preamble forever — the receiver goes deaf to its own client.
const (
	ampFreshFor  = 4    // receptions of full trust after a refresh
	ampDecayRate = 1.35 // per-reception bound relaxation beyond that
	ampForgetAge = 16   // estimates older than this are unknown
)

// ampAging returns the bound-relaxation factor for a client's coarse
// amplitude: 1 while fresh, growing exponentially once stale, +Inf when
// the estimate has aged out entirely.
func (z *Receiver) ampAging(id uint8) float64 {
	age := z.recSeq - 1 - z.ampStamp[id]
	if age <= ampFreshFor {
		return 1
	}
	if age >= ampForgetAge {
		return math.Inf(1)
	}
	return math.Pow(ampDecayRate, float64(age-ampFreshFor))
}

// detectClient runs thresholded preamble detection for one client. The
// channel is quasi-static, so the AP's coarse amplitude estimate bounds
// plausible peaks from both sides: below β·|Ĥ|·E as in §5.3a, and above
// ~2.5× the expected peak — a spike several times stronger than the
// client's channel allows is a data-correlation tail of some *other*,
// stronger sender, not this client's preamble. Both bounds widen with
// the estimate's age (ampAging), decaying toward the unknown-channel
// behaviour as the quasi-static assumption expires.
func (z *Receiver) detectClient(rx []complex128, c Client) []phy.Sync {
	g := z.ampAging(c.ID)
	if c.Amp == 0 || math.IsInf(g, 1) {
		// Unknown (or fully stale) channel: permissive threshold, no
		// upper bound.
		return z.sync.DetectFor(rx, c.Freq, z.cfg.detectBeta(), 0.2)
	}
	refAmp := c.Amp / g
	if floor := math.Min(c.Amp, 0.2); refAmp < floor {
		refAmp = floor
	}
	syncs := z.sync.DetectFor(rx, c.Freq, z.cfg.detectBeta(), refAmp)
	maxMag := 2.5 * c.Amp * g * z.sync.PreambleEnergy()
	out := syncs[:0]
	for _, s := range syncs {
		if s.Mag <= maxMag {
			out = append(out, s)
		}
	}
	return out
}

// metaFor builds the decode metadata for a set of clients on the
// receiver-owned scratch; the returned slice is valid until the next
// call on this receiver.
func (z *Receiver) metaFor(clients []uint8) []PacketMeta {
	z.metas = z.metas[:0]
	for _, id := range clients {
		c := z.clients[id]
		z.metas = append(z.metas, PacketMeta{Scheme: c.Scheme, Freq: c.Freq})
	}
	return z.metas
}

// Receive processes one reception buffer and returns the decoded
// packets. Undecoded collisions are stored for matching against future
// retransmissions; nil events mean nothing was deliverable yet. The
// returned events live in receiver-owned storage and are valid until
// the next Receive.
//
// Receive is a thin wrapper over the same per-reception pipeline the
// streaming surface (Ingest/Poll) drives, so the two paths are
// bit-identical by construction; the streaming side merely frames
// reception buffers out of a continuous sample stream first.
func (z *Receiver) Receive(rx []complex128) []Event {
	return z.receiveBuf(rx)
}

// receiveBuf is the shared per-reception pipeline behind both Receive
// and PollOne: detect, then the collision cascade.
func (z *Receiver) receiveBuf(rx []complex128) []Event {
	z.recSeq++
	// The decode session inherits the typed sink so the SIC scheduler
	// and peeler report their per-chunk decisions under this reception's
	// sequence number.
	z.dec.Obs, z.dec.ObsRec = z.Obs, int64(z.recSeq)
	occs, clients := z.detect(rx)
	if len(occs) == 0 {
		return nil
	}
	if z.Obs != nil {
		ev := obs.Event{Kind: obs.KindDetect, A: int64(len(occs))}
		appendPositions(&ev, occs)
		for _, id := range clients {
			ev.AppendList2(int(id))
		}
		z.emit(ev)
	}
	return z.receiveCollision(rx, occs, clients)
}

func (z *Receiver) receiveCollision(rx []complex128, occs []Occurrence, clients []uint8) []Event {
	// Iterative single-reception decoding (§5.1d): decode what the
	// capture/IC paths can, then re-run preamble detection on the
	// residual — a weak sender's preamble may only be visible after the
	// strong sender was subtracted — and retry with the extended
	// occurrence set. Keep an extension only if it decodes more.
	res, rec := z.decodeSingleReception(rx, occs, clients)
	if res != nil && z.obsOn() {
		ev := obs.Event{Kind: obs.KindSingleDecode, A: int64(countOK(res)), B: int64(len(res.Packets))}
		appendPositions(&ev, occs)
		z.emit(ev)
	}
	for round := 0; round < 2 && res != nil; round++ {
		if res.AllOK() && len(occs) >= len(z.clients) {
			break // everything decoded and no client unaccounted for
		}
		if len(res.Residuals) == 0 {
			break
		}
		extOccs, extClients, added := z.redetect(res.Residuals[0], occs, clients, res)
		if !added {
			if z.obsOn() {
				z.emit(obs.Event{Kind: obs.KindRedetectNone, A: int64(round)})
			}
			break
		}
		res2, rec2 := z.decodeSingleReception(rx, extOccs, extClients)
		n2 := -1
		if res2 != nil {
			n2 = countOK(res2)
		}
		if z.obsOn() {
			ev := obs.Event{Kind: obs.KindRedetect, A: int64(round), B: int64(n2), C: int64(countOK(res))}
			appendPositions(&ev, extOccs)
			z.emit(ev)
		}
		if res2 != nil && n2 > countOK(res) {
			res, rec = res2, rec2
			occs, clients = extOccs, extClients
		} else {
			break
		}
	}
	if res != nil && res.AllOK() {
		via := ViaCapture
		if len(occs) == 1 {
			via = ViaStandard
		}
		return z.deliver(res, clients, via, rec)
	}

	if !z.SkipStoreMatch {
		if evs, ok := z.matchStored(rx, rec); ok {
			return evs
		}
		// One stored collision plus the fresh reception give only two
		// equations, so for k ≥ 3 simultaneous packets the pairwise loop
		// cannot succeed; assemble every stored collision of the same
		// client set instead (§7's k-way extension).
		if evs, ok := z.tryKWayStore(rx, rec, clients); ok {
			return evs
		}
	}
	// No match (or joint decode failed): store and wait for the
	// retransmissions, delivering whatever partial capture success the
	// single-reception attempt managed.
	z.store(rec, clients)
	evs := z.evBuf[:0]
	if res != nil {
		for i := range res.Packets {
			if res.Packets[i].OK() {
				evs = append(evs, z.eventFor(&res.Packets[i], clients[i], ViaCapture, rec, i))
			}
		}
	}
	z.evBuf = evs
	if len(evs) == 0 {
		return nil
	}
	return evs
}

// matchStored searches the store for a collision matching the fresh
// reception rx (§4.2.2): it locates each stored packet inside rx by
// wide-window correlation — far more robust than re-detecting buried
// preambles — and jointly decodes the pair. Every lookup shares one
// transform and window energy of rx, and each stored packet's window
// spectrum is built once per stored entry.
func (z *Receiver) matchStored(rx []complex128, rec *Reception) ([]Event, bool) {
	z.loc.fresh.Load(rx)
	for si, st := range z.stored {
		if !z.alignStored(st, rx, &z.joint) {
			if z.obsOn() {
				z.emit(obs.Event{Kind: obs.KindStoreAlignFail, A: int64(si)})
			}
			continue
		}
		z.pair = [2]*Reception{st.rec, &z.joint}
		jres, err := DecodeWith(&z.dec, z.cfg, z.metaFor(st.clients), z.pair[:])
		if err == nil && jres.AllOK() {
			z.dropStored(si)
			if z.obsOn() {
				z.emit(obs.Event{Kind: obs.KindStoreJointOK, A: int64(si)})
			}
			return z.deliver(jres, st.clients, ViaZigzag, rec), true
		}
		if z.obsOn() {
			if err == nil {
				for i := range jres.Packets {
					z.emit(obs.Event{Kind: obs.KindStorePktErr, A: int64(si), B: int64(i), Str: errStr(jres.Packets[i].Err)})
				}
			} else {
				z.emit(obs.Event{Kind: obs.KindStoreErr, A: int64(si), Str: errStr(err)})
			}
		}
	}
	return nil, false
}

// tryKWayStore generalizes store matching beyond the pair: a k-packet
// collision needs k differently-offset receptions before the joint
// decode is solvable, so the receiver accumulates k-1 stored collisions
// of the same client set and assembles them all — each stored
// reception plus the fresh one — into a single k-way decode.
//
// Three consequences of the shared 802.11 preamble shape the assembly.
// First, cross-reception packet identity comes from *content* (the
// wide-window correlation of alignStored), never from the detector's
// client labels: every assembled reception is aligned against one
// canonical reception, exactly as the pairwise loop aligns the fresh
// reception. Second, under a k-way overlap the detector can miss buried
// preambles or invent data-correlation phantoms, so no single
// reception's occurrence list is guaranteed to describe the true packet
// positions — every reception (each matched stored entry, then the
// fresh one) is tried as the canonical in turn; a canonical whose list
// is wrong fails alignment or checksum and the next candidate is tried.
// Third, which client sent which packet is genuinely unknowable at
// detection time — a 64-sample preamble cannot separate the clients'
// CFOs — so the receiver enumerates the client→packet assignments and
// lets the frame checksum validate the right one (the §4.4 "try both,
// take whichever succeeds" discipline; k ≤ 4 keeps this to at most 24
// joint decodes on an already-rare path). Duplicate assignments —
// clients indistinguishable in scheme and CFO — are skipped.
//
// A no-op for two-client sets (the pairwise loop already covers
// those), which keeps k=2 behaviour bit-identical.
func (z *Receiver) tryKWayStore(rx []complex128, rec *Reception, clients []uint8) ([]Event, bool) {
	for si, st := range z.stored {
		k := len(st.clients)
		if k < 3 {
			continue
		}
		z.kwMatch = z.kwMatch[:0]
		z.kwMatch = append(z.kwMatch, si)
		for sj := si + 1; sj < len(z.stored); sj++ {
			if sameClientSet(z.stored[sj].clients, st.clients) {
				z.kwMatch = append(z.kwMatch, sj)
			}
		}
		if len(z.kwMatch)+1 < k {
			continue // not enough receptions for k unknowns yet
		}
		fresh := &storedCollision{rec: rec, clients: clients}
		group := make([]*storedCollision, 0, len(z.kwMatch)+1)
		for _, sj := range z.kwMatch {
			group = append(group, z.stored[sj])
		}
		group = append(group, fresh)
		for ci, cn := range group {
			others := make([]*Reception, 0, len(group)-1)
			for _, m := range group {
				if m != cn {
					others = append(others, m.rec)
				}
			}
			// Under a k-way overlap the canonical's own occurrence list may
			// miss buried preambles or carry phantoms, so repair it first:
			// hypothesize positions from its own detections plus every other
			// reception's packet windows located inside it, ranked by
			// cross-reception content evidence.
			cands := z.kwayCandidates(cn, others)
			if len(cands) < k {
				if z.obsOn() {
					ev := obs.Event{Kind: obs.KindKWayHyp, A: int64(ci), B: int64(len(cands))}
					for _, sj := range z.kwMatch {
						ev.AppendList(sj)
					}
					z.emit(ev)
				}
				continue
			}
			// Evidence ranks plausibility, but interference mixtures can
			// outscore a buried true packet, so many subsets are screened;
			// only a few may reach the expensive joint decode — the
			// alignment stage rejects the rest cheaply.
			decodes := 0
			for _, subset := range kwaySubsets(cands, k) {
				if decodes >= 4 {
					break
				}
				canon := &Reception{Samples: cn.rec.Samples}
				for pi, c := range subset {
					canon.Packets = append(canon.Packets, Occurrence{Packet: pi, Sync: c.sync})
				}
				cnView := &storedCollision{rec: canon, clients: st.clients}
				recs := make([]*Reception, 0, len(others)+1)
				recs = append(recs, canon)
				ok := true
				var freshRec *Reception = canon // stands when the fresh reception is canonical
				for _, ob := range others {
					aligned := &Reception{}
					if !z.alignStored(cnView, ob.Samples, aligned) {
						ok = false
						break
					}
					recs = append(recs, aligned)
					if ob == rec {
						freshRec = aligned
					}
				}
				if !ok {
					if z.obsOn() {
						ev := obs.Event{Kind: obs.KindKWayAlignFail, A: int64(ci)}
						for _, sj := range z.kwMatch {
							ev.AppendList(sj)
						}
						for i := range canon.Packets {
							ev.AppendList2(canon.Packets[i].Sync.RefPos)
						}
						z.emit(ev)
					}
					continue
				}
				if z.obsOn() {
					for ri, r := range recs {
						ev := obs.Event{Kind: obs.KindKWayCanonRec, A: int64(ci), B: int64(ri)}
						appendPositions(&ev, r.Packets)
						z.emit(ev)
					}
				}
				decodes++
				if evs, okD := z.kwayDecodeAssignments(recs, st.clients, freshRec); okD {
					for j := len(z.kwMatch) - 1; j >= 0; j-- {
						z.dropStored(z.kwMatch[j])
					}
					return evs, true
				}
			}
		}
	}
	return nil, false
}

// kwCand is one hypothesized packet position in a canonical reception
// of a k-way collision, scored by how strongly its content window is
// found in the other receptions of the group.
type kwCand struct {
	sync     phy.Sync
	evidence float64
}

// kwayCandidates hypothesizes the true packet positions of a canonical
// reception. Positions come from the canonical's own detections plus
// every other reception's occurrence windows located inside the
// canonical by wide-window correlation (a preamble buried for the
// canonical's detector is often detected in a differently-offset
// reception). Each hypothesis is then scored by locating *its* window
// in every other reception: a real packet was transmitted in all k
// collisions and correlates everywhere, while a detection phantom's
// window is an interference mixture specific to its reception.
// Candidates are returned sorted by that evidence, descending.
func (z *Receiver) kwayCandidates(cn *storedCollision, others []*Reception) []kwCand {
	preLen := z.cfg.PHY.PreambleBits * z.cfg.PHY.SamplesPerSymbol
	var cands []kwCand
	add := func(s phy.Sync) {
		for _, c := range cands {
			if absInt(c.sync.RefPos-s.RefPos) < preLen/4 {
				return
			}
		}
		cands = append(cands, kwCand{sync: s})
	}
	for _, oc := range cn.rec.Packets {
		add(oc.Sync)
	}
	for _, ob := range others {
		for _, oc := range ob.Packets {
			ls := z.loc.locatePacket(z.cfg, ob.Samples, oc.Sync.Start, cn.rec.Samples, 1)
			if len(ls) == 0 || ls[0].Score < z.cfg.matchThreshold() {
				continue
			}
			if sync, ok := z.sync.Measure(cn.rec.Samples, ls[0].Pos, 3, oc.Sync.Freq); ok {
				add(sync)
			}
		}
	}
	for i := range cands {
		for _, ob := range others {
			ls := z.loc.locatePacket(z.cfg, cn.rec.Samples, cands[i].sync.Start, ob.Samples, 1)
			if len(ls) > 0 && ls[0].Score >= z.cfg.matchThreshold() {
				cands[i].evidence += ls[0].Score
			}
		}
	}
	slices.SortStableFunc(cands, func(a, b kwCand) int { return cmp.Compare(b.evidence, a.evidence) })
	if z.obsOn() {
		for _, c := range cands {
			z.emit(obs.Event{Kind: obs.KindKWayCand, A: int64(c.sync.RefPos), F0: c.evidence})
		}
	}
	return cands
}

// kwaySubsets enumerates k-sized subsets of the ranked position
// hypotheses in decreasing total-evidence order. The cap is generous:
// a wrong subset is almost always rejected by the cheap alignment
// stage (cross-alignments collide or repeat stored offsets), and
// tryKWayStore separately bounds how many subsets may reach a joint
// decode. Subset members are ordered by position, matching the
// detector's convention.
func kwaySubsets(cands []kwCand, k int) [][]kwCand {
	const maxSubsets = 24
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	type scored struct {
		set []kwCand
		ev  float64
	}
	var all []scored
	for {
		s := scored{set: make([]kwCand, k)}
		for i, j := range idx {
			s.set[i] = cands[j]
			s.ev += cands[j].evidence
		}
		slices.SortFunc(s.set, func(a, b kwCand) int { return cmp.Compare(a.sync.RefPos, b.sync.RefPos) })
		all = append(all, s)
		// next combination
		i := k - 1
		for i >= 0 && idx[i] == len(cands)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	slices.SortStableFunc(all, func(a, b scored) int { return cmp.Compare(b.ev, a.ev) })
	if len(all) > maxSubsets {
		all = all[:maxSubsets]
	}
	out := make([][]kwCand, len(all))
	for i := range all {
		out[i] = all[i].set
	}
	return out
}

// kwayDecodeAssignments joint-decodes the assembled receptions under
// every distinct client→packet assignment until one passes all frame
// checksums. On success it delivers the events (learning from the
// fresh reception's syncs) and reports true.
func (z *Receiver) kwayDecodeAssignments(recs []*Reception, clients []uint8, joint *Reception) ([]Event, bool) {
	k := len(clients)
	perm := make([]uint8, k)
	copy(perm, clients)
	// Snapshot the located positions: each assignment re-measures every
	// occurrence under its own CFO hypothesis (the channel estimate H and
	// sub-sample start depend on the compensation frequency), anchored at
	// the original position so hypotheses don't drift.
	orig := make([][]phy.Sync, len(recs))
	for i, r := range recs {
		orig[i] = make([]phy.Sync, len(r.Packets))
		for j := range r.Packets {
			orig[i][j] = r.Packets[j].Sync
		}
	}
	var tried [][]uint8
	var evs []Event
	found := false
	permute(perm, 0, func(p []uint8) bool {
		// Skip assignments indistinguishable from one already tried
		// (clients with identical scheme and CFO).
		for _, q := range tried {
			if sameClientMetas(z, p, q) {
				return false
			}
		}
		tried = append(tried, append([]uint8(nil), p...))
		for i, r := range recs {
			for j := range r.Packets {
				freq := z.clients[p[r.Packets[j].Packet]].Freq
				if s, ok := z.sync.Measure(r.Samples, orig[i][j].RefPos, 3, freq); ok {
					r.Packets[j].Sync = s
				} else {
					r.Packets[j].Sync = orig[i][j]
					r.Packets[j].Sync.Freq = freq
				}
			}
		}
		jres, err := DecodeWith(&z.dec, z.cfg, z.metaFor(p), recs)
		if err == nil && jres.AllOK() {
			if z.obsOn() {
				ev := obs.Event{Kind: obs.KindKWayAssignOK, A: int64(k), B: int64(len(recs))}
				appendClients(&ev, p)
				z.emit(ev)
			}
			evs = z.deliver(jres, p, ViaZigzag, joint)
			found = true
			return true
		}
		if z.obsOn() {
			if err == nil {
				for i := range jres.Packets {
					ev := obs.Event{Kind: obs.KindKWayAssignPkErr, A: int64(i), Str: errStr(jres.Packets[i].Err)}
					appendClients(&ev, p)
					z.emit(ev)
				}
			} else {
				ev := obs.Event{Kind: obs.KindKWayAssignErr, Str: errStr(err)}
				appendClients(&ev, p)
				z.emit(ev)
			}
		}
		return false
	})
	return evs, found
}

// sameClientMetas reports whether two client assignments are
// indistinguishable to the decoder (same scheme and CFO slot by slot).
func sameClientMetas(z *Receiver, a, b []uint8) bool {
	for i := range a {
		ca, cb := z.clients[a[i]], z.clients[b[i]]
		if ca.Scheme != cb.Scheme || ca.Freq != cb.Freq {
			return false
		}
	}
	return true
}

// sameClientSet reports whether two occurrence client lists name the
// same set of senders (order-independent; detection order follows
// arrival position, which differs between collisions).
func sameClientSet(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// decodeSingleReception runs the joint decoder on one reception. The
// returned Reception is one of two receiver-owned scratch slots,
// ping-ponged so that a rejected redetect round does not clobber the
// reception the caller keeps; anything retained longer (the collision
// store) copies out of it.
func (z *Receiver) decodeSingleReception(rx []complex128, occs []Occurrence, clients []uint8) (*Result, *Reception) {
	rec := &z.srRecs[z.srFlip]
	z.srFlip ^= 1
	rec.Samples = rx
	rec.Packets = append(rec.Packets[:0], occs...)
	for i := range rec.Packets {
		rec.Packets[i].Packet = i
	}
	z.srList[0] = rec
	res, err := DecodeWith(&z.dec, z.cfg, z.metaFor(clients), z.srList[:])
	if err != nil {
		return nil, rec
	}
	return res, rec
}

// redetect revisits detection using a residual buffer in which the
// successfully decoded packets have been subtracted. Clients that have
// no occurrence yet are searched for, and clients whose occurrence
// failed to decode are *relocated*: their original position was likely a
// data-correlation phantom of a stronger sender whose signal is now
// gone, so the residual shows their true preamble cleanly. Clients are
// visited in ascending ID, so clients added in one round extend the
// occurrence list in that order.
func (z *Receiver) redetect(residual []complex128, occs []Occurrence, clients []uint8, res *Result) ([]Occurrence, []uint8, bool) {
	preLen := z.cfg.PHY.PreambleBits * z.cfg.PHY.SamplesPerSymbol
	okPos := z.rdOk[:0]
	var hasOcc [256]bool
	var occIdx [256]int
	for i, id := range clients {
		hasOcc[id], occIdx[id] = true, i
		if i < len(res.Packets) && res.Packets[i].OK() {
			okPos = append(okPos, occs[i].Sync.RefPos)
		}
	}
	z.rdOk = okPos
	// The returned slices live on the receiver scratch; a second round
	// passes them back in, which the self-append below handles (the
	// prefix copy is element-wise onto identical values).
	outOccs := append(z.rdOccs[:0], occs...)
	outClients := append(z.rdClients[:0], clients...)
	changed := false
	// The decoder rewrites its residual buffers in place, so the residual
	// is loaded afresh every round.
	z.sync.Load(residual)
	for _, id := range z.ids {
		idx, has := occIdx[id], hasOcc[id]
		if has && idx < len(res.Packets) && res.Packets[idx].OK() {
			continue // already decoded; leave it alone
		}
		var best phy.Sync
		found := false
		for _, s := range z.detectClient(residual, z.clients[id]) {
			// When relocating, the old position is excluded: it already
			// failed to decode, so whatever spikes there is not this
			// client's preamble.
			if has && absInt(s.RefPos-outOccs[idx].Sync.RefPos) < preLen/2 {
				continue
			}
			if !found || s.Mag > best.Mag {
				best, found = s, true
			}
		}
		if !found {
			continue
		}
		clash := false
		for _, p := range okPos {
			if absInt(p-best.RefPos) < preLen/2 {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		if has {
			if absInt(outOccs[idx].Sync.RefPos-best.RefPos) >= preLen/2 {
				outOccs[idx] = Occurrence{Sync: best}
				changed = true
			}
		} else {
			outOccs = append(outOccs, Occurrence{Sync: best})
			outClients = append(outClients, id)
			changed = true
		}
	}
	z.rdOccs, z.rdClients = outOccs, outClients
	return outOccs, outClients, changed
}

func countOK(r *Result) int {
	n := 0
	for i := range r.Packets {
		if r.Packets[i].OK() {
			n++
		}
	}
	return n
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// deliver assembles the per-packet events on the receiver-owned event
// buffer (valid until the next Receive).
func (z *Receiver) deliver(res *Result, clients []uint8, via Via, rec *Reception) []Event {
	evs := z.evBuf[:0]
	for i := range res.Packets {
		evs = append(evs, z.eventFor(&res.Packets[i], clients[i], via, rec, i))
	}
	z.evBuf = evs
	return evs
}

func (z *Receiver) eventFor(pr *PacketResult, client uint8, via Via, rec *Reception, idx int) Event {
	ev := Event{Result: pr, Via: via, Client: client}
	if pr.OK() {
		ev.Frame = pr.Frame
		ev.Client = pr.Frame.Src
		if idx < len(rec.Packets) {
			z.learn(pr.Frame.Src, rec.Packets[idx].Sync)
		}
	}
	if z.Obs != nil {
		decoded := int64(0)
		if ev.Frame != nil {
			decoded = 1
		}
		z.emit(obs.Event{Kind: obs.KindDeliver, A: int64(ev.Client), B: int64(via), C: decoded})
	}
	return ev
}

// learn refreshes a client's coarse channel amplitude from a successful
// decode, as the paper's AP maintains coarse estimates from prior
// packets, and restarts the estimate's aging clock. An estimate that
// had begun aging is replaced outright rather than blended: it already
// failed to describe the channel for several receptions, and EWMA-ing
// the fresh measurement into it would keep the receiver half-deaf for
// several more rounds of decay.
func (z *Receiver) learn(id uint8, s phy.Sync) {
	c, ok := z.clients[id]
	if !ok {
		return
	}
	a := cmplx.Abs(s.H)
	old := c.Amp
	replaced := int64(0)
	if c.Amp == 0 || z.ampAging(id) > 1 {
		c.Amp = a
		replaced = 1
	} else {
		c.Amp = 0.7*c.Amp + 0.3*a // EWMA
	}
	if !math.IsNaN(c.Amp) {
		z.clients[id] = c
		z.ampStamp[id] = z.recSeq
		if z.Obs != nil {
			z.emit(obs.Event{Kind: obs.KindAmpLearn, A: int64(id), B: replaced, F0: c.Amp, F1: old})
		}
	}
}

// store retains a collision for future matching. The reception's
// samples, occurrences and client list are all copied into a
// receiver-owned entry (recycled from evicted/consumed ones) — callers
// are free to reuse their rx buffer and every piece of per-reception
// scratch for the next reception — the pooled session engine renders
// every episode into one such buffer.
func (z *Receiver) store(rec *Reception, clients []uint8) {
	max := z.MaxStored
	if max <= 0 {
		max = 4
	}
	var st *storedCollision
	if n := len(z.stFree); n > 0 {
		st, z.stFree = z.stFree[n-1], z.stFree[:n-1]
	} else {
		st = &storedCollision{rec: &Reception{}}
	}
	st.buf = dsp.Ensure(st.buf, len(rec.Samples))
	copy(st.buf, rec.Samples)
	st.occs = append(st.occs[:0], rec.Packets...)
	st.clients = append(st.clients[:0], clients...)
	st.rec.Samples, st.rec.Packets = st.buf, st.occs
	// A recycled entry's windows belong to its previous collision; their
	// spectrum storage is kept.
	st.wins = slices.Grow(st.wins[:0], len(st.occs))[:len(st.occs)]
	for i := range st.wins {
		st.wins[i].set = false
		st.wins[i].ref.Set(nil)
	}
	z.stored = append(z.stored, st)
	for len(z.stored) > max {
		z.dropStored(0)
	}
}

// dropStored removes stored entry i, recycling the whole entry.
func (z *Receiver) dropStored(i int) {
	z.stFree = append(z.stFree, z.stored[i])
	z.stored = append(z.stored[:i], z.stored[i+1:]...)
	z.stored[:cap(z.stored)][len(z.stored)] = nil // drop the tail reference
}

// locateStored locates packet i of a stored collision inside rx (up to
// max candidates, best first), through the entry's cached window when
// it has one.
func (z *Receiver) locateStored(st *storedCollision, i int, rx []complex128, max int) []LocateResult {
	start := st.rec.Packets[i].Sync.Start
	if st.wins == nil {
		return z.loc.locatePacket(z.cfg, st.rec.Samples, start, rx, max)
	}
	w := &st.wins[i]
	if !w.set {
		ref, skip := locateRef(z.cfg, st.rec.Samples, start)
		w.ref.Set(ref)
		w.skip, w.set = skip, true
	}
	return z.loc.locate(z.cfg, &w.ref, w.skip, rx, max)
}

// alignStored locates every packet of a stored collision inside a fresh
// reception, writing the aligned reception into joint. The wide-window
// locator can latch onto the alignment of the *other* packet the stored
// window also contains, so each candidate position is validated by
// measuring the preamble there: a real packet start shows a channel
// estimate consistent with the client's coarse amplitude, a
// cross-alignment does not. All packets must be found above the match
// threshold at mutually distinct positions; otherwise the receptions do
// not match.
func (z *Receiver) alignStored(st *storedCollision, rx []complex128, joint *Reception) bool {
	preLen := z.cfg.PHY.PreambleBits * z.cfg.PHY.SamplesPerSymbol
	joint.Samples = rx
	joint.Packets = joint.Packets[:0]
	// With k ≥ 3 overlapping packets the window yields up to k-1
	// cross-alignment peaks besides the true one, so widen the candidate
	// list accordingly (the pair path keeps its historical 3).
	maxCands := 3
	if n := len(st.rec.Packets); n > 2 {
		maxCands = 2 * n
	}
	for i, oc := range st.rec.Packets {
		client := z.clients[st.clients[i]]
		cands := z.locateStored(st, i, rx, maxCands)
		var chosen phy.Sync
		found := false
		for _, c := range cands {
			if c.Score < z.cfg.matchThreshold() {
				break
			}
			// Distinct packets may legitimately start within one
			// preamble of each other (one-slot jitter is 20 samples);
			// only near-identical positions clash.
			clash := false
			for j := range joint.Packets {
				if absInt(joint.Packets[j].Sync.RefPos-c.Pos) < preLen/4 {
					clash = true
					break
				}
			}
			// With three or more overlapping packets the locator's window
			// unavoidably contains the other packets' content, and a
			// cross-alignment onto one of them reproduces that packet's
			// stored relative offset exactly. A candidate repeating a
			// stored pairwise offset is therefore rejected — a genuine
			// retransmission at a repeated offset would contribute no new
			// equations either (§4.2.2 needs a different offset).
			if !clash && len(st.rec.Packets) >= 3 {
				for j := range joint.Packets {
					dTarget := c.Pos - joint.Packets[j].Sync.RefPos
					dCanon := oc.Sync.RefPos - st.rec.Packets[j].Sync.RefPos
					if absInt(dTarget-dCanon) < preLen/4 {
						clash = true
						break
					}
				}
			}
			if clash {
				continue
			}
			sync, ok := z.sync.Measure(rx, c.Pos, 3, client.Freq)
			if !ok {
				continue
			}
			// The consistency window widens with the estimate's age
			// (ampAging) and disappears once it has aged out — the same
			// decay the detector applies.
			if g := z.ampAging(client.ID); client.Amp > 0 && !math.IsInf(g, 1) {
				a := cmplx.Abs(sync.H)
				if a < 0.5*client.Amp/g || a > 2.5*client.Amp*g {
					continue // cross-alignment, not this packet's preamble
				}
			}
			chosen, found = sync, true
			break
		}
		if !found {
			if z.obsOn() {
				for _, c := range cands {
					z.emit(obs.Event{Kind: obs.KindAlignCand, A: int64(i), B: int64(c.Pos), F0: c.Score, F1: z.cfg.matchThreshold()})
				}
			}
			return false
		}
		joint.Packets = append(joint.Packets, Occurrence{Packet: oc.Packet, Sync: chosen})
	}
	return true
}
