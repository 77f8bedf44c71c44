// Package obs is the structured observability layer: a typed decode
// event stream, a registry of atomic counters/gauges with histogram
// views bridged to the metrics sketches, and the HTTP export surface
// (/metrics Prometheus text, /debug/obs JSON snapshots, pprof).
//
// The paper argues ZigZag through visibility into the decode process —
// which collisions matched, what chunk schedule the SIC peeler chose,
// when the receiver fell back to capture — and this package makes that
// visibility structural instead of stringly: the receiver and decoder
// emit typed Events (detection, store matching, chunk schedule, peel
// outcomes, amplitude aging, forced cuts, degrade transitions) through
// a Sink. Event.String renders the kinds the historical printf trace
// hook carried exactly as that hook printed them.
//
// Cost discipline: with no observer attached the instrumented hot paths
// are a nil check — zero allocations, bit-identical results. Every
// consumer-facing piece (Ring, Registry) is safe for a concurrent
// reader so a live HTTP scrape never stalls the single-goroutine
// receiver; the Ring drops oldest events (counted) rather than block.
//
// Setting ZIGZAG_NO_OBS to any value other than "" or "0" (or
// zigzag-serve's -no-obs flag via internal/hatch) detaches the layer
// at its attachment points: engines skip registry wiring and sink
// attachment entirely, restoring the uninstrumented configuration for
// bisection.
package obs

import (
	"os"
	"sync"
	"sync/atomic"
)

// disabled gates the observability layer's attachment points (the
// serve engine and zigzag-serve's listener). The instrumented code
// itself is always nil-guarded; this hatch keeps even the guards' sinks
// from being attached.
var disabled atomic.Bool

func init() { disabled.Store(envOn(os.Getenv("ZIGZAG_NO_OBS"))) }

// envOn is the environment rule of every hatch: any value but "" and
// "0" is on.
func envOn(v string) bool { return v != "" && v != "0" }

// SetDisabled pins (or unpins) the no-obs escape hatch. zigzag-serve
// exposes it as -no-obs; ZIGZAG_NO_OBS sets it at startup.
func SetDisabled(v bool) { disabled.Store(v) }

// Disabled reports whether the observability layer is detached.
func Disabled() bool { return disabled.Load() }

// Kind identifies a decode event's type. The first block corresponds
// one-to-one to the historical printf trace lines (Event.String
// reproduces them bit for bit); the second block is structural events
// the stringly hook never carried.
type Kind uint8

const (
	KindNone Kind = iota

	// Legacy-pinned receiver events (see legacyLine for the payload of
	// each operand field).
	KindSingleDecode    // single-reception decode summary: A=ok, B=total, List=occ positions
	KindRedetectNone    // redetect found nothing: A=round
	KindRedetect        // redetect outcome: A=round, B=ok, C=was, List=occ positions
	KindStoreAlignFail  // pairwise store alignment failed: A=store index
	KindStoreJointOK    // pairwise joint decode succeeded: A=store index
	KindStorePktErr     // pairwise joint decode per-packet error: A=store, B=pkt, Str=err
	KindStoreErr        // pairwise joint decode errored: A=store, Str=err
	KindKWayHyp         // k-way: too few position hypotheses: List=store set, A=canonical, B=hypotheses
	KindKWayAlignFail   // k-way alignment failed: List=store set, A=canonical, List2=positions
	KindKWayCanonRec    // k-way assembled reception: A=canonical, B=rec, List=positions
	KindKWayCand        // k-way position hypothesis: A=pos, F0=evidence
	KindKWayAssignOK    // k-way assignment decoded: List=assignment, A=k, B=receptions
	KindKWayAssignPkErr // k-way per-packet error: List=assignment, A=pkt, Str=err
	KindKWayAssignErr   // k-way decode errored: List=assignment, Str=err
	KindAlignCand       // alignStored rejected candidates: A=pkt, B=pos, F0=score, F1=threshold

	// Structural events.
	KindDetect    // collision detected: A=#occurrences, List=positions, List2=client IDs
	KindDeliver   // event delivered: A=client, B=via, C=1 when a frame decoded
	KindSchedule  // SIC scheduler picked a chunk: A=pkt, B=lo, C=hi, List=[rec, dir, gain], F0=margin
	KindPeel      // chunk committed (peeled): A=pkt, B=lo, C=hi, List=[rec, dir], F0=|H|
	KindForce     // forced-capture fallback chunk: A=pkt, B=lo, C=hi, List=[rec, dir], F0=power ratio
	KindAmpLearn  // coarse amplitude learned: A=client, B=1 when replaced (aged), F0=new, F1=old
	KindForcedCut // framer MaxWindow cut: A=start, B=end (stream samples)
	KindShed      // pending reception shed by the bounded queue: A=start, B=end
	KindDegrade   // serve degrade transition: A=1 engaged / 0 restored, B=pending depth
)

// kindNames is indexed by Kind; keep in sync with the constants.
var kindNames = [...]string{
	KindNone:            "none",
	KindSingleDecode:    "single_decode",
	KindRedetectNone:    "redetect_none",
	KindRedetect:        "redetect",
	KindStoreAlignFail:  "store_align_fail",
	KindStoreJointOK:    "store_joint_ok",
	KindStorePktErr:     "store_pkt_err",
	KindStoreErr:        "store_err",
	KindKWayHyp:         "kway_hyp",
	KindKWayAlignFail:   "kway_align_fail",
	KindKWayCanonRec:    "kway_canon_rec",
	KindKWayCand:        "kway_cand",
	KindKWayAssignOK:    "kway_assign_ok",
	KindKWayAssignPkErr: "kway_assign_pkt_err",
	KindKWayAssignErr:   "kway_assign_err",
	KindAlignCand:       "align_cand",
	KindDetect:          "detect",
	KindDeliver:         "deliver",
	KindSchedule:        "schedule",
	KindPeel:            "peel",
	KindForce:           "force",
	KindAmpLearn:        "amp_learn",
	KindForcedCut:       "forced_cut",
	KindShed:            "shed",
	KindDegrade:         "degrade",
}

// String names the kind the way the JSONL stream spells it.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MaxList is the inline list capacity of an Event. Emitters append at
// most MaxList elements; longer source lists are truncated (none of the
// default-configuration paths come close).
const MaxList = 12

// Event is one typed decode event. It is a fixed-size value — emitting
// one allocates nothing — with generic operand fields whose meaning is
// documented per Kind (see the Kind constants). Rec is the receiver's
// reception sequence number at emission time (0 for events outside a
// reception); Seq is assigned by the Ring on publication.
type Event struct {
	Kind Kind
	Seq  uint64
	Rec  int64

	A, B, C int64
	F0, F1  float64

	List  [MaxList]int32
	N     uint8
	List2 [MaxList]int32
	N2    uint8

	// Str carries an error string when the Kind calls for one. Filling
	// it may allocate; emitters only do so when an observer is attached.
	Str string
}

// AppendList appends v to the event's primary list, dropping it when
// the inline capacity is exhausted.
func (e *Event) AppendList(v int) {
	if int(e.N) < MaxList {
		e.List[e.N] = int32(v)
		e.N++
	}
}

// AppendList2 appends v to the event's secondary list.
func (e *Event) AppendList2(v int) {
	if int(e.N2) < MaxList {
		e.List2[e.N2] = int32(v)
		e.N2++
	}
}

// Ints returns the primary list as ints (allocates; consumer side).
func (e *Event) Ints() []int { return intList(e.List, e.N) }

// Ints2 returns the secondary list as ints.
func (e *Event) Ints2() []int { return intList(e.List2, e.N2) }

func intList(l [MaxList]int32, n uint8) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(l[i])
	}
	return out
}

// Sink receives decode events. Implementations must be cheap and must
// not retain pointers into the event (it is a value; retaining the
// copy is fine).
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// Ring is a fixed-capacity event buffer: the producer never blocks and
// never allocates; when the consumer falls behind, the oldest events
// are overwritten and counted as dropped. Safe for one producer and any
// number of concurrent consumers (a mutex, held only for the copy).
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest buffered event
	n       int // buffered events
	seq     uint64
	dropped uint64
}

// DefaultRingCapacity is the capacity NewRing applies to cap <= 0.
const DefaultRingCapacity = 1024

// NewRing builds a ring holding up to cap events.
func NewRing(cap int) *Ring {
	if cap <= 0 {
		cap = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, cap)}
}

// Emit publishes one event, stamping its Seq. O(1), allocation-free;
// drops (and counts) the oldest buffered event when full.
func (r *Ring) Emit(ev Event) {
	r.mu.Lock()
	ev.Seq = r.seq
	r.seq++
	if r.n == len(r.buf) {
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
		r.n--
		r.dropped++
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = ev
	r.n++
	r.mu.Unlock()
}

// Drain appends the buffered events to out (oldest first), empties the
// ring, and returns the extended slice.
func (r *Ring) Drain(out []Event) []Event {
	r.mu.Lock()
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		out = append(out, r.buf[j])
	}
	r.head, r.n = 0, 0
	r.mu.Unlock()
	return out
}

// Len reports how many events are buffered.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Published reports how many events were ever emitted.
func (r *Ring) Published() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped reports how many events were overwritten unconsumed.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
