package obs

import (
	"sync"
	"testing"
)

// TestCounterConcurrentSum hammers one counter from many goroutines and
// checks no increment is lost across the stripes.
func TestCounterConcurrentSum(t *testing.T) {
	const (
		goroutines = 32
		perG       = 10_000
	)
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Errorf("Load = %d, want %d", got, goroutines*perG)
	}
}

// TestCounterNilSafe pins the nil-receiver no-op contract the
// instrumented hot paths rely on.
func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Error("nil counter Load != 0")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	if g.Load() != 0 {
		t.Error("nil gauge Load != 0")
	}
	var fg *FloatGauge
	fg.Set(1.5)
	if fg.Load() != 0 {
		t.Error("nil float gauge Load != 0")
	}
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram not a no-op")
	}
}

// TestGauge checks Set/Add interplay.
func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Add(1)
	if got := g.Load(); got != 8 {
		t.Errorf("gauge = %d, want 8", got)
	}
	var fg FloatGauge
	fg.Set(0.75)
	if got := fg.Load(); got != 0.75 {
		t.Errorf("float gauge = %g, want 0.75", got)
	}
}

func TestCounterAddSampled(t *testing.T) {
	var c Counter
	// Single goroutine -> one stripe; exactly one signal per 4 adds.
	signals := 0
	for i := 0; i < 64; i++ {
		if c.AddSampled(1, 4) {
			signals++
		}
	}
	if signals != 16 {
		t.Errorf("64 adds at every=4 signalled %d times, want 16", signals)
	}
	if c.Load() != 64 {
		t.Errorf("Load = %d, want 64", c.Load())
	}
	var nilC *Counter
	if nilC.AddSampled(1, 4) {
		t.Error("nil counter signalled")
	}
}
