package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// StageTiming is one completed pipeline stage: a named span of wall
// time, as recorded by Metrics.Stage.
type StageTiming struct {
	Name     string
	Start    time.Time
	Duration time.Duration
}

// Metrics is a registry of named counters and stage timings for the
// analysis pipeline (CFG construction, cache classification, IPET
// encoding, ILP solving). A nil *Metrics is a valid disabled registry:
// every method is nil-safe and costs one branch, so instrumentation
// can be threaded through the pipeline unconditionally.
//
// Metrics is safe for concurrent use — wcet.(*Analyzer).AnalyzeAll
// fans analyses out across goroutines that all report into one shared
// registry.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]uint64
	stages   []StageTiming
	epoch    time.Time
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]uint64), epoch: time.Now()}
}

// Add increments a named counter. Nil-safe.
func (m *Metrics) Add(name string, v uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += v
	m.mu.Unlock()
}

var noopStop = func() {}

// Stage starts a named wall-time span and returns the function that
// ends it. Nil-safe: on a nil registry the returned stop is a no-op.
//
//	defer m.Stage("classify/" + entry)()
func (m *Metrics) Stage(name string) func() {
	if m == nil {
		return noopStop
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		m.mu.Lock()
		m.stages = append(m.stages, StageTiming{Name: name, Start: start, Duration: d})
		m.mu.Unlock()
	}
}

// StatsSnapshot is a point-in-time copy of the registry's contents.
type StatsSnapshot struct {
	// Counters maps counter name to accumulated value.
	Counters map[string]uint64
	// Stages lists completed stage timings in completion order.
	Stages []StageTiming
}

// Stats returns a consistent snapshot of all counters and stages.
func (m *Metrics) Stats() StatsSnapshot {
	if m == nil {
		return StatsSnapshot{Counters: map[string]uint64{}}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := StatsSnapshot{
		Counters: make(map[string]uint64, len(m.counters)),
		Stages:   append([]StageTiming(nil), m.stages...),
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	return s
}

// String renders the snapshot as a sorted plain-text report.
func (s StatsSnapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %12d\n", n, s.Counters[n])
	}
	// Aggregate stages by name: total duration and invocation count.
	type agg struct {
		total time.Duration
		n     int
	}
	byName := make(map[string]*agg)
	var order []string
	for _, st := range s.Stages {
		a := byName[st.Name]
		if a == nil {
			a = &agg{}
			byName[st.Name] = a
			order = append(order, st.Name)
		}
		a.total += st.Duration
		a.n++
	}
	sort.Strings(order)
	for _, n := range order {
		a := byName[n]
		fmt.Fprintf(&b, "%-28s %12v (%d calls)\n", n, a.total.Round(time.Microsecond), a.n)
	}
	return b.String()
}
