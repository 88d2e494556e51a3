package history

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/psl"
)

// CompileCache materialises history versions and compiles each into a
// packed matcher exactly once, however many goroutines ask for it. The
// experiments sweep and the staleness extension both walk the same
// versions repeatedly; compiling 1,142 packed tries once and sharing the
// immutable results is what makes the parallel sweep scale.
//
// Entries are created under a mutex but compiled outside it through a
// per-entry sync.Once, so distinct versions compile concurrently while a
// version requested twice blocks the second caller only until the first
// compile finishes.
type CompileCache struct {
	h   *History
	max int

	mu      sync.Mutex
	entries map[int]*compileEntry
	order   []int

	compiles        obs.Counter
	compileDuration *obs.Histogram
}

type compileEntry struct {
	once sync.Once
	list *psl.List
	m    *psl.PackedMatcher
}

// NewCompileCache creates a cache over h. max bounds the number of
// retained entries (FIFO eviction); max <= 0 keeps every version, which
// for the full history is on the order of the history's own footprint
// and is the right choice for sweeps that visit each version.
func NewCompileCache(h *History, max int) *CompileCache {
	return &CompileCache{
		h:               h,
		max:             max,
		entries:         make(map[int]*compileEntry),
		compileDuration: obs.NewHistogram(nil),
	}
}

// RegisterMetrics attaches the cache's metric families to a registry:
// versions compiled, per-compile duration, and current occupancy.
func (c *CompileCache) RegisterMetrics(r *obs.Registry) {
	r.MustRegister("psl_compile_total", "List versions compiled into packed matchers.", nil, &c.compiles)
	r.MustRegister("psl_compile_duration_seconds", "Wall time to materialise and compile one list version.", nil, c.compileDuration)
	r.MustRegister("psl_compile_cache_entries", "Compiled versions currently retained.", nil,
		obs.GaugeFunc(func() float64 { return float64(c.Len()) }))
}

// Get returns version seq's materialised list and compiled packed
// matcher, compiling on first use. Both returned values are immutable
// and remain valid after the entry is evicted.
func (c *CompileCache) Get(seq int) (*psl.List, *psl.PackedMatcher) {
	c.mu.Lock()
	e, ok := c.entries[seq]
	if !ok {
		e = &compileEntry{}
		if c.max > 0 {
			for len(c.order) >= c.max {
				delete(c.entries, c.order[0])
				c.order = c.order[1:]
			}
		}
		c.entries[seq] = e
		c.order = append(c.order, seq)
	}
	c.mu.Unlock()

	e.once.Do(func() {
		t0 := time.Now()
		e.list = c.h.ListAt(seq)
		e.m = e.list.Matcher()
		c.compiles.Add(1)
		c.compileDuration.Observe(time.Since(t0))
	})
	return e.list, e.m
}

// Compiles reports how many versions have actually been compiled —
// stays equal to the number of distinct sequences requested, proving
// the compile-once property under concurrency.
func (c *CompileCache) Compiles() uint64 { return c.compiles.Load() }

// Len reports the number of currently retained entries.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
