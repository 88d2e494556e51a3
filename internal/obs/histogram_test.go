package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets checks observations land in the right buckets
// under the `le` (inclusive upper bound) convention.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	obs := []time.Duration{
		500 * time.Microsecond, // <= 0.001
		time.Millisecond,       // == 0.001 → first bucket (le is inclusive)
		2 * time.Millisecond,   // <= 0.01
		50 * time.Millisecond,  // <= 0.1
		time.Second,            // +Inf
		-time.Second,           // clamped to 0 → first bucket
	}
	for _, d := range obs {
		h.Observe(d)
	}
	want := []uint64{3, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 2*time.Millisecond + 50*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramConcurrent checks count/sum stay exact under concurrent
// observers (the atomic-per-bucket design has no torn updates).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const (
		goroutines = 16
		perG       = 5_000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("Count = %d, want %d", got, goroutines*perG)
	}
	var wantSum time.Duration
	for g := 1; g <= goroutines; g++ {
		wantSum += time.Duration(g) * time.Microsecond * perG
	}
	if h.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramOverflowBucket checks observations beyond the last
// finite bound are retained by the implicit +Inf bucket: count and sum
// both account for them, and the exposition's +Inf cumulative count
// equals _count (the invariant promlint enforces).
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(5 * time.Millisecond) // in range
	h.Observe(time.Hour)            // overflow
	h.Observe(24 * 365 * time.Hour) // far overflow
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3 (overflow observations kept)", h.Count())
	}
	if got := h.counts[len(h.counts)-1].Load(); got != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", got)
	}
	if want := 5*time.Millisecond + time.Hour + 24*365*time.Hour; h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}

	reg := NewRegistry()
	reg.MustRegister("psl_test_overflow_seconds", "overflow check", nil, h)
	infos, err := ValidateExpositionInfo(strings.NewReader(reg.Render()))
	if err != nil {
		t.Fatalf("exposition with overflow observations invalid: %v", err)
	}
	if len(infos) != 1 || infos[0].Type != "histogram" {
		t.Fatalf("infos = %+v", infos)
	}
}

// TestHistogramBadBounds pins the panic on unsorted bounds.
func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on unsorted bounds")
		}
	}()
	NewHistogram([]float64{2, 1})
}
