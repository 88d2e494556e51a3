package main

import (
	"sort"
	"time"
)

// Span is one timed call into a layer's public entry point, recorded by
// the benchmark around the call. Spans of one operation share Op;
// Parent indexes the span that caused this one (-1 for a root). Count
// is the number of calls the span covers: calls much shorter than a
// clock read are timed in blocks, and a block's per-call cost is its
// duration over Count.
type Span struct {
	Name   string
	Op     int64
	Parent int
	Start  int64 // ns since the tracer's epoch
	End    int64
	Count  int64
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory for the whole run; nothing is written
// until the benchmark ends. A nil *Tracer records nothing, so untraced
// runs pay one nil check per call site.
type Tracer struct {
	epoch time.Time
	spans []Span
}

// NewTracer returns a tracer with room for capHint spans.
func NewTracer(capHint int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, capHint)}
}

// Begin opens a span and returns its index, or -1 on a nil tracer.
func (t *Tracer) Begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch)), Count: 1})
	return len(t.spans) - 1
}

// End closes span i, which covered count calls.
func (t *Tracer) End(i int, count int64) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.spans[i].Count = count
}

// Add records an already-timed interval as a span (for stage times a
// layer reports itself, such as a submission's verdict timestamps).
func (t *Tracer) Add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Count: 1})
	return len(t.spans) - 1
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children are
// counted once), and the calls the spans covered.
func selfTimes(spans []Span) (self map[string]int64, calls map[string]int64) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make(map[string]int64)
	calls = make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += s.Dur() - covered(s, spans, children[i])
		calls[s.Name] += s.Count
	}
	return self, calls
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent Span, spans []Span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curA, curB int64 = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// perCall is the mean nanoseconds per call of every span with this name.
func perCall(spans []Span, name string) float64 {
	var ns, n int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.Dur()
			n += s.Count
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// peel turns entry costs measured outermost-first into self costs: each
// layer's entry cost minus the entry cost of the next layer in. The
// innermost layer keeps its whole entry cost. Negative differences
// (measurement noise on layers that add almost nothing) clamp to zero.
func peel(entry []float64) []float64 {
	out := make([]float64, len(entry))
	for i := range entry {
		out[i] = entry[i]
		if i+1 < len(entry) {
			out[i] -= entry[i+1]
		}
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// largest names the layer with the most self time.
func largest(self map[string]float64) (string, float64) {
	name, best := "", -1.0
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if self[k] > best {
			name, best = k, self[k]
		}
	}
	return name, best
}
