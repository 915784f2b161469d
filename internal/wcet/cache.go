package wcet

import (
	"context"
	"strconv"
	"sync"

	"verikern/internal/cfg"
	"verikern/internal/ilp"
	"verikern/internal/obs"
)

// Cache memoises analyses for the life of the process in three typed
// tiers, each keyed by a plain string built from the inputs it depends
// on:
//
//   - graphs: the inlined CFG with loop bounds, keyed by image
//     fingerprint and entry, shared across every hardware
//     configuration and constraint set analysed over that image;
//   - results: solved bounds, keyed additionally by the hardware
//     fingerprint, the constraint set and KeepLP. Each holds the
//     worst-case path's edge counts, and builds the path itself the
//     first time an AnalyzeContext asks for it;
//   - prepared: the ILP's feasible basis after phase 1
//     (ilp.Prepared), keyed by the exact bytes of the constraint rows
//     (ilp.Problem.RowsKey). Hardware changes only the objective, so
//     every hardware configuration over one CFG, loop-bound set and
//     constraint set shares one entry, and so do graphs of different
//     images whose rows coincide.
//
// Each key is computed once: a lookup that finds the key in flight
// waits for the first computation and counts as a hit. The cache never
// evicts: it holds at most one entry per distinct (image, entry) pair,
// one per distinct result key and one per distinct constraint-row set.
// Cached values are shared across analyses and goroutines and must be
// treated as immutable. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	graphs   tier[*cfg.Graph]
	results  tier[*boundEntry]
	prepared tier[*ilp.Prepared]
	// hits and misses count the graph and result tiers' lookups.
	hits, misses uint64
}

// tier is one of the cache's maps and how its lookups are counted. The
// graph and result tiers count in CacheStats and in passcache.hits and
// passcache.misses; the prepared tier counts in neither, and its
// computation reports its own ilp.prepares.
type tier[V any] struct {
	slots map[string]*slot[V]
	// hitMetric is the counter a hit adds to.
	hitMetric string
	// counted puts the tier's lookups in CacheStats and passcache.*.
	counted bool
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

// CacheStats is a point-in-time snapshot of cache effectiveness over
// the graph and result tiers.
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
	return &Cache{
		graphs:   tier[*cfg.Graph]{slots: make(map[string]*slot[*cfg.Graph]), hitMetric: "passcache.hit.cfg", counted: true},
		results:  tier[*boundEntry]{slots: make(map[string]*slot[*boundEntry]), hitMetric: "passcache.hit.result", counted: true},
		prepared: tier[*ilp.Prepared]{slots: make(map[string]*slot[*ilp.Prepared]), hitMetric: "ilp.prepare_hits"},
	}
}

// get returns t[key], running fill to compute it on a miss. A lookup
// that finds the key in flight waits for that computation (or for ctx)
// and, if it failed, tries again. A lookup counts as a hit when it
// returns a stored value and as a miss when it runs fill; one
// abandoned with ctx counts as neither. A hit adds to the tier's
// hitMetric; in a counted tier, hits and misses also count in the
// cache and in passcache.hits or passcache.misses. The tier maps are
// emptied in place, never replaced, so t may be read from the Cache
// outside the lock.
func get[V any](ctx context.Context, c *Cache, m *obs.Metrics, t tier[V], key string, fill func() (V, error)) (v V, hit bool, err error) {
	for {
		c.mu.Lock()
		s, found := t.slots[key]
		if !found {
			s = &slot[V]{done: make(chan struct{})}
			t.slots[key] = s
			if t.counted {
				c.misses++
			}
		}
		c.mu.Unlock()
		if !found {
			if t.counted {
				m.Add("passcache.misses", 1)
			}
			v, err = s.run(c, t.slots, key, fill)
			return v, false, err
		}
		select {
		case <-s.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if s.ok {
			if t.counted {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				m.Add("passcache.hits", 1)
			}
			m.Add(t.hitMetric, 1)
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
	clear(c.graphs.slots)
	clear(c.results.slots)
	clear(c.prepared.slots)
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters and the entry count.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.graphs.slots) + len(c.results.slots)}
}

// graphKey names the graph tier's entry for one entry point: the
// linked image's content plus the entry under analysis.
func (a *Analyzer) graphKey(entry string) string {
	return a.Img.Fingerprint() + "|" + entry
}

// resultKey covers every input of a whole Result: image content, entry,
// hardware and backend (hwFingerprint), the constraint set in order,
// and whether the LP text is retained. The constraint set is written
// as its length and then, per constraint, the kind, the
// length-prefixed In, A and B, and N, so that distinct sets never
// share an encoding.
func (a *Analyzer) resultKey(entry string) string {
	b := make([]byte, 0, 256)
	b = append(b, a.graphKey(entry)...)
	b = append(b, '|')
	b = append(b, a.hwFingerprint()...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(a.Constraints)), 10)
	for _, uc := range a.Constraints {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(uc.Kind), 10)
		for _, s := range [...]string{uc.In, uc.A, uc.B} {
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(len(s)), 10)
			b = append(b, ':')
			b = append(b, s...)
		}
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(uc.N), 10)
	}
	b = append(b, "|keepLP="...)
	b = strconv.AppendBool(b, a.KeepLP)
	return string(b)
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
