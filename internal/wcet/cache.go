package wcet

import (
	"fmt"
	"sync"

	"verikern/internal/cfg"
	"verikern/internal/obs"
)

// Cache memoises analyses for the life of the process in two typed
// tiers, both keyed by plain strings built from the inputs they depend
// on:
//
//   - graphs: the inlined CFG with loop bounds, keyed by image
//     fingerprint and entry, shared across every hardware
//     configuration and constraint set analysed over that image;
//   - results: whole Results, keyed additionally by the hardware
//     fingerprint, the constraint set and KeepLP.
//
// The cache never evicts: it holds at most one entry per distinct
// (image, entry) pair plus one per distinct result key. Cached values
// are shared across analyses and goroutines and must be treated as
// immutable. Safe for concurrent use.
type Cache struct {
	mu           sync.Mutex
	graphs       map[string]*cfg.Graph
	results      map[string]*Result
	hits, misses uint64
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups served from the cache; Misses counts
	// lookups that fell through to a computation.
	Hits, Misses uint64
	// Entries is the number of graphs plus Results currently held.
	Entries int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{graphs: make(map[string]*cfg.Graph), results: make(map[string]*Result)}
}

// lookup returns tier[key], counting the lookup as a hit or a miss in
// the cache and in the metrics registry (passcache.hits plus
// passcache.hit.<name>, or passcache.misses). The tier maps are emptied
// in place, never replaced, so tier may be read from the Cache outside
// the lock.
func lookup[V any](c *Cache, m *obs.Metrics, tier map[string]V, name, key string) (V, bool) {
	c.mu.Lock()
	v, ok := tier[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		m.Add("passcache.hits", 1)
		m.Add("passcache.hit."+name, 1)
	} else {
		m.Add("passcache.misses", 1)
	}
	return v, ok
}

// store sets m[key] = v under the cache lock.
func store[V any](c *Cache, m map[string]V, key string, v V) {
	c.mu.Lock()
	m[key] = v
	c.mu.Unlock()
}

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	clear(c.graphs)
	clear(c.results)
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters and the entry count.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.graphs) + len(c.results)}
}

// graphKey names the graph tier's entry for one entry point: the
// linked image's content plus the entry under analysis.
func (a *Analyzer) graphKey(entry string) string {
	return a.Img.Fingerprint() + "|" + entry
}

// resultKey covers every input of a whole Result: image content, entry,
// hardware and backend (hwFingerprint), the constraint set in order,
// and whether the LP text is retained.
func (a *Analyzer) resultKey(entry string) string {
	return fmt.Sprintf("%s|%s|%+v|keepLP=%v", a.graphKey(entry), a.hwFingerprint(), a.Constraints, a.KeepLP)
}

// hwFingerprint digests the hardware configuration via its canonical
// key (arch.Config.CanonicalKey), the same encoding the konfig lattice
// hashes, so equivalent Configs — e.g. the empty Arch and the explicit
// default backend id — share cache entries. The resolved backend's
// id@version leads the digest: the canonical key alone is not enough,
// because a backend's timing model can be revised without the Config
// changing.
func (a *Analyzer) hwFingerprint() string {
	return a.HW.Backend().Key() + "|" + a.HW.CanonicalKey()
}
