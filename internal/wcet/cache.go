package wcet

import (
	"context"
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
//   - results: solved bounds, keyed additionally by the hardware
//     fingerprint, the constraint set and KeepLP. Each holds the
//     worst-case path's edge counts, and builds the path itself the
//     first time an AnalyzeContext asks for it.
//
// Each key is computed once: a lookup that finds the key in flight
// waits for the first computation and counts as a hit. The cache never
// evicts: it holds at most one entry per distinct (image, entry) pair
// plus one per distinct result key. Cached values are shared across
// analyses and goroutines and must be treated as immutable. Safe for
// concurrent use.
type Cache struct {
	mu           sync.Mutex
	graphs       map[string]*slot[*cfg.Graph]
	results      map[string]*slot[*boundEntry]
	hits, misses uint64
}

// slot is one cache entry. done is closed once the computation that
// created the slot returns; ok then reports whether it stored v. A
// failed computation's slot leaves the tier before done closes, so a
// later lookup computes the key afresh.
type slot[V any] struct {
	done chan struct{}
	v    V
	ok   bool
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups served from the cache, including lookups
	// that waited for another goroutine's computation of the same
	// key; Misses counts lookups that ran the computation.
	Hits, Misses uint64
	// Entries is the number of graph and result entries currently
	// held, including any still being computed.
	Entries int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{graphs: make(map[string]*slot[*cfg.Graph]), results: make(map[string]*slot[*boundEntry])}
}

// get returns tier[key], running fill to compute it on a miss. A
// lookup that finds the key in flight waits for that computation (or
// for ctx) and, if it failed, tries again. A lookup counts as a hit
// when it returns a stored value and as a miss when it runs fill, in
// the cache and in the metrics registry (passcache.hits plus
// passcache.hit.<name>, or passcache.misses); one abandoned with ctx
// counts as neither. The tier maps are emptied in place, never
// replaced, so tier may be read from the Cache outside the lock.
func get[V any](ctx context.Context, c *Cache, m *obs.Metrics, tier map[string]*slot[V], name, key string, fill func() (V, error)) (v V, hit bool, err error) {
	for {
		c.mu.Lock()
		s, found := tier[key]
		if !found {
			s = &slot[V]{done: make(chan struct{})}
			tier[key] = s
			c.misses++
		}
		c.mu.Unlock()
		if !found {
			m.Add("passcache.misses", 1)
			v, err = s.run(c, tier, key, fill)
			return v, false, err
		}
		select {
		case <-s.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if s.ok {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			m.Add("passcache.hits", 1)
			m.Add("passcache.hit."+name, 1)
			return s.v, true, nil
		}
	}
}

// run computes the value of a slot this goroutine created. On
// failure, a panic included, the slot leaves the tier (unless a Reset
// already dropped it) before its waiters are released.
func (s *slot[V]) run(c *Cache, tier map[string]*slot[V], key string, fill func() (V, error)) (v V, err error) {
	defer func() {
		if !s.ok {
			c.mu.Lock()
			if tier[key] == s {
				delete(tier, key)
			}
			c.mu.Unlock()
		}
		close(s.done)
	}()
	if v, err = fill(); err != nil {
		return v, err
	}
	s.v, s.ok = v, true
	return v, nil
}

// Reset drops every entry and zeroes the counters. Computations in
// flight finish for their own callers but are not kept.
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
