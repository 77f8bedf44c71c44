package main

import "testing"

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct{ n, permille, want int }{
		{100, 900, 10}, {99, 900, 9}, {20, 500, 10}, {19, 500, 9},
		{1000, 990, 10}, {999, 990, 9}, {10000, 999, 10}, {9999, 999, 9},
	} {
		if got := beyond(c.n, c.permille); got != c.want {
			t.Errorf("beyond(%d, %d‰) = %d, want %d", c.n, c.permille, got, c.want)
		}
	}
}

func TestFrameLossCountsADuplicateOnce(t *testing.T) {
	offered := map[frameID]bool{{1, 0}: true, {2, 0}: true, {1, 1}: true, {2, 1}: true}
	distinct, dup, err := frameLoss(offered, []frameID{{1, 0}, {2, 0}, {1, 0}})
	if err != nil || distinct != 2 || dup != 1 {
		t.Fatalf("frameLoss = %d distinct, %d duplicates, %v; want 2, 1, nil", distinct, dup, err)
	}
	if got := (deliveries{distinct: distinct, offered: len(offered)}).loss(); got != 0.5 {
		t.Errorf("loss = %v, want 0.5", got)
	}
	if _, _, err := frameLoss(offered, []frameID{{3, 0}}); err == nil {
		t.Error("a frame that was never offered was accepted")
	}
}

func TestSpanSelfTimesReconcile(t *testing.T) {
	spans := []span{
		{name: "drive", start: 0, end: 100, parent: -1},
		{name: "phy.ingest", start: 10, end: 30, parent: 0},
		{name: "core.poll", start: 40, end: 70, parent: 0},
		{name: "inner", start: 45, end: 55, parent: 2},
		{name: "phy.ingest", start: 80, end: 85, parent: 0},
	}
	total, self := spanTotals(spans)
	want := map[string][2]int64{ // total, self
		"drive": {100, 45}, "phy.ingest": {25, 25}, "core.poll": {30, 20}, "inner": {10, 10},
	}
	var sum int64
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %d self %d, want %d and %d", name, total[name], self[name], w[0], w[1])
		}
		sum += self[name]
	}
	// Self times partition the root: what no layer span covers is the
	// unattributed remainder.
	if sum != total["drive"] {
		t.Errorf("self times sum to %d, the root lasted %d", sum, total["drive"])
	}
}

func TestRefuseHatches(t *testing.T) {
	if err := refuseHatches(func(string) string { return "" }); err != nil {
		t.Fatalf("no hatch set: %v", err)
	}
	err := refuseHatches(func(k string) string {
		if k == "ZIGZAG_NO_OBS" {
			return "1"
		}
		return ""
	})
	if err == nil {
		t.Fatal("ZIGZAG_NO_OBS=1 was not refused")
	}
}
