package passes

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
)

// KeyID derives the content-addressed cache key of a pass artifact:
// the SHA-256 of (pass name, pass version, input fingerprint). Because
// the fingerprint covers the content of every input — image bytes,
// hardware configuration, constraint set — two analyses of identical
// inputs share one key no matter which Analyzer instance, build or
// process produced them.
func KeyID(pass string, version int, fingerprint string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s", pass, version, fingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts artifacts served from the cache; Misses counts
	// lookups that fell through to a pass run.
	Hits, Misses uint64
	// Entries is the number of artifacts currently held.
	Entries int
}

// Cache is a content-addressed, in-memory artifact cache. Safe for
// concurrent use.
type Cache struct {
	mu  sync.Mutex
	mem map[string]any

	hits, misses atomic.Uint64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]any)}
}

// Get returns the artifact under key.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	v, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores the artifact under key.
func (c *Cache) Put(key string, v any) {
	c.mu.Lock()
	c.mem[key] = v
	c.mu.Unlock()
}

// Reset drops every artifact and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.mem = make(map[string]any)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.mem)
	c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: n,
	}
}
