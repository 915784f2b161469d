package verikern

import (
	"sync"

	"verikern/internal/kimage"
	"verikern/internal/measure"
	"verikern/internal/obs"
	"verikern/internal/wcet"
)

// session is the work one paper regeneration shares between its
// drivers: Table 1, Table 2, Figures 8 and 9 and the headline build
// the same few images, analyse the same entries and replay the same
// worst-case paths, so each distinct piece of that work is done once
// per session and handed out to every driver that asks. Every tier is
// keyed by the inputs its value is a pure function of and states its
// bound below; ResetAnalysisCache empties them all. Safe for concurrent
// use.
type session struct {
	// analyses is the analysis cache behind every Analyze call made
	// through this package (wcet.Cache states its tiers and bound).
	analyses *wcet.Cache
	// images holds one built kernel image and its constraints per
	// kbin.Options key (kbin.Options.Canonical: modernised × pinned ×
	// TCM × backend), so at most one per distinct build; a cold paper
	// regeneration asks for 8 and builds 3.
	images memo[string, builtImage]
	// replays holds the compiled replay of each Result whose
	// worst-case path was observed or costed along its trace (Fig. 8)
	// since the last reset, one per distinct Result; a cold paper
	// regeneration compiles Table 2's 8 paths and Figures 8 and 9
	// reuse them.
	replays memo[*wcet.Result, *kimage.Replay]
	// observations holds one Observation per distinct campaign
	// (observationKey) since the last reset: per observed Result, one
	// for each image, hardware configuration and run count it was
	// observed under. A cold paper regeneration asks for 32 and
	// replays 20.
	observations memo[observationKey, measure.Observation]
}

var sess = session{analyses: wcet.NewCache()}

// reset empties every tier and zeroes its counters.
func (s *session) reset() {
	s.analyses.Reset()
	s.images.reset()
	s.replays.reset()
	s.observations.reset()
}

// builtImage is the shared part of a built image: the kernel binary
// and its infeasible-path constraints, both immutable once built.
type builtImage struct {
	img  *kimage.Image
	cons []wcet.UserConstraint
}

// replay returns the compiled form of r's worst-case path, compiling
// it on the session's first request. m counts compiles
// (measure.compiles) and requests served from the tier
// (measure.compile_hits).
func (s *session) replay(r *wcet.Result, m *obs.Metrics) *kimage.Replay {
	rp, hit, _ := s.replays.get(r, func() (*kimage.Replay, error) { // cannot fail
		return kimage.Compile(r.Trace), nil
	})
	countLookup(m, hit, "measure.compile_hits", "measure.compiles")
	return rp
}

// countLookup adds one to m's hit counter when hit, else to its miss
// counter.
func countLookup(m *obs.Metrics, hit bool, hitName, missName string) {
	if hit {
		m.Add(hitName, 1)
	} else {
		m.Add(missName, 1)
	}
}

// observationKey identifies one polluted measurement campaign: the
// analysed Result whose trace is replayed, the replaying image's
// content (its pin set decides what LoadImage locks), the hardware and
// its backend version, and the run count. An Observation is a pure
// function of these.
type observationKey struct {
	result *wcet.Result
	image  string
	hw     string
	runs   int
}

// memo is one tier of the session: a map in which each key is
// computed once. A lookup that finds its key in flight waits for that
// computation and counts as a hit; a lookup that runs the computation
// counts as a miss. A failed computation leaves the tier before its
// waiters are released, so they, and later lookups, compute the key
// afresh. The zero memo is empty and ready for use.
type memo[K comparable, V any] struct {
	mu           sync.Mutex
	slots        map[K]*memoSlot[V]
	hits, misses uint64
}

// memoSlot is one memo entry. done is closed once the computation that
// created the slot returns; ok then reports whether it stored v.
type memoSlot[V any] struct {
	done chan struct{}
	v    V
	ok   bool
}

// get returns the value of key, running fill to compute it on a miss,
// and whether it was a hit.
func (t *memo[K, V]) get(key K, fill func() (V, error)) (V, bool, error) {
	for {
		t.mu.Lock()
		s, found := t.slots[key]
		if !found {
			if t.slots == nil {
				t.slots = make(map[K]*memoSlot[V])
			}
			s = &memoSlot[V]{done: make(chan struct{})}
			t.slots[key] = s
			t.misses++
		}
		t.mu.Unlock()
		if !found {
			v, err := t.run(key, s, fill)
			return v, false, err
		}
		<-s.done
		if s.ok {
			t.mu.Lock()
			t.hits++
			t.mu.Unlock()
			return s.v, true, nil
		}
	}
}

// run computes the value of a slot this goroutine created. On
// failure, a panic included, the slot leaves the tier (unless a reset
// already dropped it) before its waiters are released.
func (t *memo[K, V]) run(key K, s *memoSlot[V], fill func() (V, error)) (v V, err error) {
	defer func() {
		if !s.ok {
			t.mu.Lock()
			if t.slots[key] == s {
				delete(t.slots, key)
			}
			t.mu.Unlock()
		}
		close(s.done)
	}()
	if v, err = fill(); err != nil {
		return v, err
	}
	s.v, s.ok = v, true
	return v, nil
}

// reset drops every entry and zeroes the counters. Computations in
// flight finish for their own callers but are not kept.
func (t *memo[K, V]) reset() {
	t.mu.Lock()
	clear(t.slots)
	t.hits, t.misses = 0, 0
	t.mu.Unlock()
}

// stats returns a snapshot of the counters and the entry count, in
// flight ones included.
func (t *memo[K, V]) stats() wcet.CacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return wcet.CacheStats{Hits: t.hits, Misses: t.misses, Entries: len(t.slots)}
}
