package main

import (
	"time"

	"zigzag/internal/obs"
)

// span is one timed call at a layer boundary.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int   // index of the span that caused this one; -1 for a root
}

// tracer keeps the traced replay's spans in memory.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = int64(time.Since(t.origin)) }

// spanTotals sums each span name's total and self time in ns. A span's
// self time is its duration minus the time its child spans cover; the
// children of one span never overlap, because one goroutine records
// them all.
func spanTotals(spans []span) (total, self map[string]int64) {
	total = make(map[string]int64)
	self = make(map[string]int64)
	for _, s := range spans {
		total[s.name] += s.end - s.start
		self[s.name] += s.end - s.start
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[spans[s.parent].name] -= s.end - s.start
		}
	}
	return total, self
}

// eventCounts is an obs.Sink that counts the receiver's typed events.
type eventCounts struct {
	kinds [256]int64
	total int64
	// occurrences sums KindDetect's occurrence counts.
	occurrences int64
	// storePktErrDecodes counts failed joint decodes that reported
	// per-packet errors: such a decode emits one event per packet, and
	// only the first has packet index 0.
	storePktErrDecodes int64
	// framesDelivered counts KindDeliver events that carried a frame.
	framesDelivered int64
}

func (c *eventCounts) Emit(ev obs.Event) {
	c.kinds[ev.Kind]++
	c.total++
	switch ev.Kind {
	case obs.KindDetect:
		c.occurrences += ev.A
	case obs.KindStorePktErr:
		if ev.B == 0 {
			c.storePktErrDecodes++
		}
	case obs.KindDeliver:
		if ev.C == 1 {
			c.framesDelivered++
		}
	}
}

// jointDecodes counts pairwise joint decodes of a stored collision with
// a fresh reception (each follows a successful store alignment).
func (c *eventCounts) jointDecodes() int64 {
	return c.kinds[obs.KindStoreJointOK] + c.kinds[obs.KindStoreErr] + c.storePktErrDecodes
}

// storeAligns counts pairwise store alignments attempted.
func (c *eventCounts) storeAligns() int64 {
	return c.kinds[obs.KindStoreAlignFail] + c.jointDecodes()
}

// sicChunks counts SIC chunks committed, peeled or forced.
func (c *eventCounts) sicChunks() int64 {
	return c.kinds[obs.KindPeel] + c.kinds[obs.KindForce]
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
