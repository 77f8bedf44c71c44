package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// legacyLine formats an event exactly as the historical printf trace
// hook printed it, reporting ok=false for kinds that hook never
// carried. Event.String renders through it, which keeps the
// zigzag-trace text output bit-identical to the printf era (the format
// strings below are the originals, verbatim).
func legacyLine(e *Event) (string, bool) {
	switch e.Kind {
	case KindSingleDecode:
		return fmt.Sprintf("single-reception decode: ok=%d/%d occs=%v", e.A, e.B, e.Ints()), true
	case KindRedetectNone:
		return fmt.Sprintf("redetect round %d: nothing new", e.A), true
	case KindRedetect:
		return fmt.Sprintf("redetect round %d: occs=%v ok=%d (was %d)", e.A, e.Ints(), e.B, e.C), true
	case KindStoreAlignFail:
		return fmt.Sprintf("store %d: alignment failed", e.A), true
	case KindStoreJointOK:
		return fmt.Sprintf("store %d: joint decode ok", e.A), true
	case KindStorePktErr:
		return fmt.Sprintf("store %d: joint pkt%d err=%s", e.A, e.B, e.Str), true
	case KindStoreErr:
		return fmt.Sprintf("store %d: joint decode error: %s", e.A, e.Str), true
	case KindKWayHyp:
		return fmt.Sprintf("kway store %v canonical %d: only %d position hypotheses", e.Ints(), e.A, e.B), true
	case KindKWayAlignFail:
		return fmt.Sprintf("kway store %v canonical %d: alignment failed for positions %v", e.Ints(), e.A, e.Ints2()), true
	case KindKWayCanonRec:
		return fmt.Sprintf("kway canonical %d rec %d: positions %v", e.A, e.B, e.Ints()), true
	case KindKWayCand:
		return fmt.Sprintf("kway candidate pos=%d evidence=%.3f", e.A, e.F0), true
	case KindKWayAssignOK:
		return fmt.Sprintf("kway assignment %v: joint decode ok (k=%d, %d receptions)", e.Ints(), e.A, e.B), true
	case KindKWayAssignPkErr:
		return fmt.Sprintf("kway assignment %v: joint pkt%d err=%s", e.Ints(), e.A, e.Str), true
	case KindKWayAssignErr:
		return fmt.Sprintf("kway assignment %v: joint decode error: %s", e.Ints(), e.Str), true
	case KindAlignCand:
		return fmt.Sprintf("alignStored pkt%d: cand pos=%d score=%.3f (thr %.3f)", e.A, e.B, e.F0, e.F1), true
	}
	return "", false
}

// String renders the event for humans: the pinned legacy line when one
// exists, a generic operand dump otherwise.
func (e Event) String() string {
	if line, ok := legacyLine(&e); ok {
		return fmt.Sprintf("[rec %d] %s", e.Rec, line)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[rec %d] %s", e.Rec, e.Kind)
	if e.A != 0 || e.B != 0 || e.C != 0 {
		fmt.Fprintf(&b, " a=%d b=%d c=%d", e.A, e.B, e.C)
	}
	if e.F0 != 0 || e.F1 != 0 {
		fmt.Fprintf(&b, " f0=%g f1=%g", e.F0, e.F1)
	}
	if e.N > 0 {
		fmt.Fprintf(&b, " list=%v", e.Ints())
	}
	if e.N2 > 0 {
		fmt.Fprintf(&b, " list2=%v", e.Ints2())
	}
	if e.Str != "" {
		fmt.Fprintf(&b, " str=%q", e.Str)
	}
	return b.String()
}

// eventJSON is the JSONL wire form of an Event (zigzag-trace -json and
// the /debug/obs event tail). Zero-valued operands are omitted; Kind,
// Seq and Rec always appear.
type eventJSON struct {
	Kind  string  `json:"kind"`
	Seq   uint64  `json:"seq"`
	Rec   int64   `json:"rec"`
	A     int64   `json:"a,omitempty"`
	B     int64   `json:"b,omitempty"`
	C     int64   `json:"c,omitempty"`
	F0    float64 `json:"f0,omitempty"`
	F1    float64 `json:"f1,omitempty"`
	List  []int   `json:"list,omitempty"`
	List2 []int   `json:"list2,omitempty"`
	Str   string  `json:"str,omitempty"`
}

// MarshalJSON serializes the event compactly with the kind spelled out.
func (e Event) MarshalJSON() ([]byte, error) {
	w := eventJSON{
		Kind: e.Kind.String(),
		Seq:  e.Seq,
		Rec:  e.Rec,
		A:    e.A, B: e.B, C: e.C,
		F0: e.F0, F1: e.F1,
		Str: e.Str,
	}
	if e.N > 0 {
		w.List = e.Ints()
	}
	if e.N2 > 0 {
		w.List2 = e.Ints2()
	}
	return json.Marshal(w)
}
