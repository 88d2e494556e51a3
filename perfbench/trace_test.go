package main

import (
	"reflect"
	"testing"
)

// TestSelfTimes checks the span arithmetic: a span's self time is its
// duration minus the union of its children's intervals, clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "op", Parent: -1, Start: 0, End: 100, Count: 1},
		{Name: "a", Parent: 0, Start: 10, End: 40, Count: 1},
		{Name: "b", Parent: 0, Start: 30, End: 60, Count: 1},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120, Count: 1}, // runs past its parent
		{Name: "d", Parent: 1, Start: 15, End: 25, Count: 4},
		{Name: "a", Parent: -1, Start: 200, End: 250, Count: 1},
	}
	self, calls := selfTimes(spans)
	want := map[string]int64{
		"op": 100 - (60 - 10) - (100 - 90),
		"a":  (30 - 10) + 50,
		"b":  30,
		"c":  30,
		"d":  10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if calls["a"] != 2 || calls["d"] != 4 {
		t.Errorf("calls = %v", calls)
	}
	if got := perCall(spans, "d"); got != 2.5 {
		t.Errorf("perCall(d) = %v, want 2.5", got)
	}
}

// TestPeel checks layer peeling: entry costs outermost first become
// each layer's cost minus the next layer in, clamped at zero.
func TestPeel(t *testing.T) {
	got := peel([]float64{100, 60, 65, 20})
	want := []float64{40, 0, 45, 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("peel = %v, want %v", got, want)
	}
	var total float64
	for _, v := range peel([]float64{100, 60, 30, 20}) {
		total += v
	}
	if total != 100 {
		t.Errorf("peeled layers sum to %v, want the outermost entry 100", total)
	}
	name, v := largest(map[string]float64{"x": 1, "y": 5, "z": 5})
	if name != "y" || v != 5 {
		t.Errorf("largest = %s %v, want y 5 (ties break by name)", name, v)
	}
}

// TestTracerRecordsNestedSpans checks spans recorded around real calls
// keep their parent links and counts, and a nil tracer records nothing.
func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Begin("root", 7, -1)
	kid := tr.Begin("kid", 7, root)
	tr.End(kid, 3)
	tr.End(root, 1)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != 0 || s[1].Count != 3 || s[0].Op != 7 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
	var none *Tracer
	if i := none.Begin("x", 0, -1); i != -1 || none.Spans() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	none.End(-1, 1)
}
