package serve

import (
	"sync"
	"sync/atomic"
)

// cacheShards is the number of independently locked cache segments.
const cacheShards = 64

// DefaultCacheSize is the default total entry bound of a Cache.
const DefaultCacheSize = 1 << 16

// Cache is a sharded answer cache mapping host queries to complete
// Answers. Nothing in the serving path uses it: every lookup and batch
// row runs Snapshot.Resolve directly, which is cheaper than a probe
// plus insert over hosts that rarely repeat. Its only user is the
// serve.cache layer of perfbench (perfbench/layers.go), which prices a
// probe; the type goes when that layer does.
type Cache struct {
	shards   [cacheShards]cacheShard
	maxShard int
	size     atomic.Int64
	bytes    atomic.Int64
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]Answer
}

// NewCache builds a cache bounded to roughly maxEntries entries
// (per-shard bounds, so the true ceiling is within one shard's worth).
// maxEntries <= 0 selects DefaultCacheSize.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	per := maxEntries / cacheShards
	if per < 1 {
		per = 1
	}
	c := &Cache{maxShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[string]Answer)
	}
	return c
}

// shard picks the segment for a key by FNV-1a.
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached answer for the key, if present.
func (c *Cache) Get(key string) (Answer, bool) {
	s := c.shard(key)
	s.mu.RLock()
	a, ok := s.m[key]
	s.mu.RUnlock()
	return a, ok
}

// entryOverheadBytes approximates the per-entry cost beyond the string
// payloads: the Answer struct itself, the map bucket slot and the key
// header. The figure is a deliberate model, not a heap measurement —
// what matters is that accounting is applied symmetrically on insert,
// overwrite and evict, so the byte gauge converges to the model's total
// (the cache test recomputes it offline and demands equality).
const entryOverheadBytes = 160

// entryCost is the modelled resident size of one cache entry.
func entryCost(key string, a Answer) int64 {
	return int64(entryOverheadBytes + len(key) +
		len(a.Query) + len(a.Host) + len(a.ETLD) + len(a.Site) +
		len(a.Rule) + len(a.Section) + len(a.Version))
}

// Put stores an answer. A full shard evicts one arbitrary entry (map
// iteration order), which is good enough for a cache whose lifetime is
// one snapshot: the hot Zipf head re-establishes itself immediately.
// Size and byte accounting happen under the shard lock, so the global
// counters only ever lag by in-flight deltas and can never go negative.
func (c *Cache) Put(key string, a Answer) {
	s := c.shard(key)
	cost := entryCost(key, a)
	s.mu.Lock()
	if old, exists := s.m[key]; exists {
		c.bytes.Add(cost - entryCost(key, old))
	} else {
		if len(s.m) >= c.maxShard {
			for k, victim := range s.m {
				delete(s.m, k)
				c.size.Add(-1)
				c.bytes.Add(-entryCost(k, victim))
				break
			}
		}
		c.size.Add(1)
		c.bytes.Add(cost)
	}
	s.m[key] = a
	s.mu.Unlock()
}

// Len reports the current number of cached entries.
func (c *Cache) Len() int {
	return int(c.size.Load())
}

// Bytes reports the modelled resident size of the cache in bytes (see
// entryCost).
func (c *Cache) Bytes() int64 {
	return c.bytes.Load()
}
