package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// answerFor builds a deterministic answer whose string payloads vary by
// key, so byte-accounting mistakes can't cancel out.
func answerFor(key string, variant int) Answer {
	return Answer{
		Query:   key,
		Host:    key,
		ETLD:    fmt.Sprintf("etld%d", variant%7),
		Site:    fmt.Sprintf("site%d.%s", variant%13, key),
		Rule:    fmt.Sprintf("rule%d", variant%5),
		Section: "icann",
		Version: fmt.Sprintf("v%04d", variant%3),
	}
}

// trueTotals recomputes the cache's entry count and modelled byte total
// from the live shard maps — the oracle the atomic accounting must
// match once writers quiesce.
func trueTotals(c *Cache) (entries int, bytes int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		entries += len(s.m)
		for k, a := range s.m {
			bytes += entryCost(k, a)
		}
		s.mu.RUnlock()
	}
	return entries, bytes
}

// TestCacheSizeAccountingConcurrent drives a small cache into constant
// eviction and overwrite churn from many goroutines while a sampler
// asserts the atomic size/bytes counters never go negative; after the
// churn, both counters must equal the exact recomputed totals.
func TestCacheSizeAccountingConcurrent(t *testing.T) {
	// Tiny bound: 64 shards * 4 entries — every writer constantly
	// evicts, the worst case for the accounting.
	c := NewCache(256)
	const (
		writers   = 16
		opsPerW   = 4_000
		keyspace  = 4_096 // >> capacity, forces eviction; overlaps across writers
		overwrite = 8     // every 8th op rewrites a hot key with a new variant
	)

	stop := make(chan struct{})
	var negatives atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c.Len() < 0 || c.Bytes() < 0 {
				negatives.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for i := 0; i < opsPerW; i++ {
				var key string
				if i%overwrite == 0 {
					key = fmt.Sprintf("hot%d.example.com", rng.Intn(32))
				} else {
					key = fmt.Sprintf("k%d.example.com", rng.Intn(keyspace))
				}
				c.Put(key, answerFor(key, i))
				if i%3 == 0 {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	if n := negatives.Load(); n != 0 {
		t.Errorf("size/bytes observed negative %d times during churn", n)
	}
	wantEntries, wantBytes := trueTotals(c)
	if got := c.Len(); got != wantEntries {
		t.Errorf("Len = %d, true entry total %d", got, wantEntries)
	}
	if got := c.Bytes(); got != wantBytes {
		t.Errorf("Bytes = %d, true byte total %d", got, wantBytes)
	}
	if wantEntries == 0 || wantBytes == 0 {
		t.Fatalf("degenerate test: %d entries, %d bytes", wantEntries, wantBytes)
	}
}

// TestCacheBytesOverwrite pins the overwrite path: replacing a key with
// a differently-sized answer must adjust the byte total by the
// difference, not double-count.
func TestCacheBytesOverwrite(t *testing.T) {
	c := NewCache(0)
	small := Answer{Query: "k", ETLD: "com"}
	big := Answer{Query: "k", ETLD: "com", Site: "a-much-longer-site-string.example.com", Version: "v0001"}

	c.Put("k.example.com", small)
	if got, want := c.Bytes(), entryCost("k.example.com", small); got != want {
		t.Fatalf("after insert: Bytes = %d, want %d", got, want)
	}
	c.Put("k.example.com", big)
	if got, want := c.Bytes(), entryCost("k.example.com", big); got != want {
		t.Errorf("after overwrite: Bytes = %d, want %d", got, want)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestCacheBound checks the cache never exceeds its configured bound.
func TestCacheBound(t *testing.T) {
	c := NewCache(cacheShards) // one entry per shard
	for i := 0; i < 10*cacheShards; i++ {
		c.Put(fmt.Sprintf("host%d.example.com", i), Answer{})
	}
	if c.Len() > cacheShards {
		t.Errorf("cache grew to %d entries, bound %d", c.Len(), cacheShards)
	}
}
