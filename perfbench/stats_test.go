package main

import (
	"math"
	"testing"
)

// TestTailQuantileKeepsTenBeyond pins the percentile rule: report the
// highest percentile that leaves at least ten samples above it.
func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 0.99, true},
		{1000, 0.99, true}, // p99 is rank 990: exactly ten beyond
		{999, 0.90, true},  // p99 is rank 990: nine beyond
		{100, 0.90, true},
		{99, 0.75, true},
		{40, 0.75, true},
		{39, 0.50, true},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: %s leaves %d beyond", c.n, pctLabel(q), beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.99: 990, 1: 1000, 0: 1} {
		if q > 0 && q < 1 && beyond(len(s), q) != len(s)-int(want) {
			t.Errorf("beyond(1000, %v) = %d", q, beyond(len(s), q))
		}
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
