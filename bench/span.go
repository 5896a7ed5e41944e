package main

import (
	"sort"
	"time"
)

// Span is one timed call from the harness into a layer. Parent is the ID
// of the span that was open when this one began (-1 at the top); Op ties
// together every span of one operation (one pipeline run, one request).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the same code runs traced and untraced. It is not safe for
// concurrent use: the traced run drives the layers from one goroutine.
type Tracer struct {
	epoch time.Time
	spans []Span
	open  []int
	op    int
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NextOp starts a new operation; spans begun from now on carry its id.
func (t *Tracer) NextOp() {
	if t != nil {
		t.op++
	}
}

// Do runs fn inside a span and returns how long it took.
func (t *Tracer) Do(name string, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].Start = start.Sub(t.epoch).Nanoseconds()
	t.spans[id].End = end.Sub(t.epoch).Nanoseconds()
	return end.Sub(start)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its direct children cover. Children may nest or overlap one
// another (concurrent calls); their union is what is subtracted, clipped
// to the parent's own interval.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var cover, upto int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < upto {
				lo = upto
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				cover += hi - lo
				upto = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - cover
	}
	return self
}

// selfByName sums self time over the spans of each name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}
