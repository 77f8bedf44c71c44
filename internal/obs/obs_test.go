package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestKindStringCoverage(t *testing.T) {
	seen := map[string]bool{}
	for k := KindNone; k <= KindDegrade; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("kind name %q duplicated", name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind should stringify as unknown")
	}
}

func TestEventListAppendAndTruncate(t *testing.T) {
	var e Event
	for i := 0; i < MaxList+5; i++ {
		e.AppendList(i)
		e.AppendList2(i * 10)
	}
	if int(e.N) != MaxList || int(e.N2) != MaxList {
		t.Fatalf("lists did not cap at MaxList: N=%d N2=%d", e.N, e.N2)
	}
	ints := e.Ints()
	if len(ints) != MaxList || ints[0] != 0 || ints[MaxList-1] != MaxList-1 {
		t.Fatalf("Ints = %v", ints)
	}
	if got := e.Ints2()[3]; got != 30 {
		t.Fatalf("Ints2[3] = %d, want 30", got)
	}
}

func TestRingDropOldestAndDrain(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Emit(Event{Kind: KindDetect, A: int64(i)})
	}
	if r.Published() != 7 {
		t.Fatalf("published %d, want 7", r.Published())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped())
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	evs := r.Drain(nil)
	if len(evs) != 4 {
		t.Fatalf("drained %d, want 4", len(evs))
	}
	// Oldest surviving first, with Seq stamped in publication order.
	for i, ev := range evs {
		if want := int64(3 + i); ev.A != want || ev.Seq != uint64(want) {
			t.Fatalf("evs[%d] = {A:%d Seq:%d}, want A=Seq=%d", i, ev.A, ev.Seq, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after drain")
	}
	if r.Dropped() != 3 {
		t.Fatalf("drain changed the drop count")
	}
	// Drain appends to the caller's slice.
	r.Emit(Event{A: 99})
	out := r.Drain(evs[:0])
	if len(out) != 1 || out[0].A != 99 {
		t.Fatalf("drain-into = %+v", out)
	}
}

func TestRingEmitAllocFree(t *testing.T) {
	r := NewRing(8)
	ev := Event{Kind: KindPeel, A: 1, B: 2, C: 3, F0: 4.5}
	ev.AppendList(6)
	if n := testing.AllocsPerRun(100, func() { r.Emit(ev) }); n != 0 {
		t.Fatalf("Ring.Emit allocates %v/op, want 0", n)
	}
}

// TestLegacyLineFormats pins every legacy-mapped kind against the
// original printf formats, written out verbatim here a second time so a
// drive-by edit of legacy.go cannot silently rewrite history.
func TestLegacyLineFormats(t *testing.T) {
	mk := func(kind Kind, a, b, c int64, f0, f1 float64, str string, list, list2 []int) Event {
		e := Event{Kind: kind, A: a, B: b, C: c, F0: f0, F1: f1, Str: str}
		for _, v := range list {
			e.AppendList(v)
		}
		for _, v := range list2 {
			e.AppendList2(v)
		}
		return e
	}
	cases := []struct {
		ev   Event
		want string
	}{
		{mk(KindSingleDecode, 1, 2, 0, 0, 0, "", []int{40, 700}, nil),
			fmt.Sprintf("single-reception decode: ok=%d/%d occs=%v", 1, 2, []int{40, 700})},
		{mk(KindRedetectNone, 3, 0, 0, 0, 0, "", nil, nil),
			fmt.Sprintf("redetect round %d: nothing new", 3)},
		{mk(KindRedetect, 1, 2, 1, 0, 0, "", []int{9, 11}, nil),
			fmt.Sprintf("redetect round %d: occs=%v ok=%d (was %d)", 1, []int{9, 11}, 2, 1)},
		{mk(KindStoreAlignFail, 4, 0, 0, 0, 0, "", nil, nil),
			fmt.Sprintf("store %d: alignment failed", 4)},
		{mk(KindStoreJointOK, 0, 0, 0, 0, 0, "", nil, nil),
			fmt.Sprintf("store %d: joint decode ok", 0)},
		{mk(KindStorePktErr, 2, 1, 0, 0, 0, "crc mismatch", nil, nil),
			fmt.Sprintf("store %d: joint pkt%d err=%v", 2, 1, fmt.Errorf("crc mismatch"))},
		{mk(KindStoreErr, 2, 0, 0, 0, 0, "no progress", nil, nil),
			fmt.Sprintf("store %d: joint decode error: %v", 2, fmt.Errorf("no progress"))},
		{mk(KindKWayHyp, 1, 2, 0, 0, 0, "", []int{0, 3}, nil),
			fmt.Sprintf("kway store %v canonical %d: only %d position hypotheses", []int{0, 3}, 1, 2)},
		{mk(KindKWayAlignFail, 1, 0, 0, 0, 0, "", []int{0, 3}, []int{5, 7}),
			fmt.Sprintf("kway store %v canonical %d: alignment failed for positions %v", []int{0, 3}, 1, []int{5, 7})},
		{mk(KindKWayCanonRec, 1, 2, 0, 0, 0, "", []int{5, 7}, nil),
			fmt.Sprintf("kway canonical %d rec %d: positions %v", 1, 2, []int{5, 7})},
		{mk(KindKWayCand, 31, 0, 0, 0.724, 0, "", nil, nil),
			fmt.Sprintf("kway candidate pos=%d evidence=%.3f", 31, 0.724)},
		{mk(KindKWayAssignOK, 3, 2, 0, 0, 0, "", []int{1, 0, 2}, nil),
			fmt.Sprintf("kway assignment %v: joint decode ok (k=%d, %d receptions)", []int{1, 0, 2}, 3, 2)},
		{mk(KindKWayAssignPkErr, 1, 0, 0, 0, 0, "crc mismatch", []int{1, 0}, nil),
			fmt.Sprintf("kway assignment %v: joint pkt%d err=%v", []int{1, 0}, 1, fmt.Errorf("crc mismatch"))},
		{mk(KindKWayAssignErr, 0, 0, 0, 0, 0, "stalled", []int{1, 0}, nil),
			fmt.Sprintf("kway assignment %v: joint decode error: %v", []int{1, 0}, fmt.Errorf("stalled"))},
		{mk(KindAlignCand, 1, 812, 0, 0.412, 0.55, "", nil, nil),
			fmt.Sprintf("alignStored pkt%d: cand pos=%d score=%.3f (thr %.3f)", 1, 812, 0.412, 0.55)},
	}
	for _, tc := range cases {
		got, ok := legacyLine(&tc.ev)
		if !ok {
			t.Errorf("%v: legacyLine not defined", tc.ev.Kind)
			continue
		}
		if got != tc.want {
			t.Errorf("%v:\n got %q\nwant %q", tc.ev.Kind, got, tc.want)
		}
	}
	// Structural kinds have no legacy line.
	for _, k := range []Kind{KindDetect, KindDeliver, KindSchedule, KindPeel, KindForce, KindAmpLearn, KindForcedCut, KindShed, KindDegrade} {
		if _, ok := legacyLine(&Event{Kind: k}); ok {
			t.Errorf("%v unexpectedly has a legacy line", k)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: KindStoreJointOK, Rec: 7, A: 2}
	if got, want := e.String(), "[rec 7] store 2: joint decode ok"; got != want {
		t.Errorf("legacy String = %q, want %q", got, want)
	}
	s := Event{Kind: KindSchedule, Rec: 3, A: 1, B: 10, C: 20, F0: 0.5}
	s.AppendList(0)
	str := s.String()
	for _, frag := range []string{"[rec 3]", "schedule", "a=1 b=10 c=20", "f0=0.5", "list=[0]"} {
		if !strings.Contains(str, frag) {
			t.Errorf("generic String %q missing %q", str, frag)
		}
	}
}

func TestEventJSON(t *testing.T) {
	e := Event{Kind: KindPeel, Seq: 12, Rec: 3, A: 1, B: 100, C: 200, F0: 1.25}
	e.AppendList(0)
	e.AppendList(1)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"peel","seq":12,"rec":3,"a":1,"b":100,"c":200,"f0":1.25,"list":[0,1]}`
	if string(data) != want {
		t.Errorf("json = %s\nwant   %s", data, want)
	}
	// Zero operands are omitted; identity fields stay.
	data, err = json.Marshal(Event{Kind: KindDetect})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"kind":"detect","seq":0,"rec":0}`; string(data) != want {
		t.Errorf("minimal json = %s, want %s", data, want)
	}
}

func TestDisabledHatch(t *testing.T) {
	was := Disabled()
	defer SetDisabled(was)
	SetDisabled(true)
	if !Disabled() {
		t.Fatal("SetDisabled(true) not visible")
	}
	SetDisabled(false)
	if Disabled() {
		t.Fatal("SetDisabled(false) not visible")
	}
}

// TestEnvRule pins the ZIGZAG_NO_OBS rule: any value other than "" and
// "0" sets the hatch.
func TestEnvRule(t *testing.T) {
	for _, tc := range []struct {
		v  string
		on bool
	}{{"", false}, {"0", false}, {"1", true}, {"true", true}} {
		if got := envOn(tc.v); got != tc.on {
			t.Errorf("envOn(%q) = %v, want %v", tc.v, got, tc.on)
		}
	}
}
