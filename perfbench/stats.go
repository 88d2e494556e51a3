package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail figure may report, highest
// first. A run reports the highest one that keeps at least minBeyond
// samples strictly above it, so a tail figure is never set by one or two
// outliers.
var tailLadder = []float64{0.99, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q among n
// sorted samples: the smallest k with k >= q*n.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond reports how many of n samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tailQuantile picks the highest percentile of tailLadder that leaves
// at least minBeyond of n samples beyond it. With fewer samples than
// any rung needs it falls back to the median and reports ok=false.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if n > 0 && beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0.50, false
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count) — used for repeated whole measurements such as set-up times,
// where interpolating is the conventional summary.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pctLabel names a quantile as "p99", "p90", "p75" or "p50".
func pctLabel(q float64) string { return fmt.Sprintf("p%d", int(math.Round(q*100))) }
