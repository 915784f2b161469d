package soak

import "verikern/internal/obs"

// Capture is one flight-recorder dump: the sample that tripped the
// sentinel and the trailing window of trace events leading up to it.
// Worker, Seed and Op are stamped at capture time, so a fleet-level
// violation capture identifies which worker (shard), which campaign
// seed and which op index produced it without any post-hoc bookkeeping.
type Capture struct {
	// Sample is the offending interrupt-response observation.
	Sample obs.Sample
	// Reason is "violation" (sample exceeded the bound), "near-max"
	// (new observed maximum within the margin of the bound), or
	// "new-max" (any new observed maximum, when Config.CaptureNewMax
	// arms the probe's capture mode).
	Reason string
	// Worker is the index of the worker (fleet shard) whose kernel
	// produced it.
	Worker int
	// Seed is the campaign seed the worker's op stream derives from.
	Seed uint64
	// Op is the worker's op index when the capture was taken (how many
	// workload operations had completed).
	Op uint64
	// Config is the konfig lattice-point hash of the configuration the
	// worker ran (Config.ConfigKey; empty for ad-hoc configs), so a
	// capture surfacing through a fleet merge names the exact
	// configuration that produced it.
	Config string
	// Events is the preserved trace window, oldest first.
	Events []obs.Event
}

// sentinel is the live bound checker: it receives every interrupt-
// response sample via the tracer's sample hook, compares it against
// the computed WCET bound, and snapshots the flight recorder (the
// tracer's trailing events) when the bound is breached or a new
// maximum lands inside the near-bound margin.
//
// The sentinel is single-goroutine (the hook runs synchronously on the
// worker driving the kernel), so it needs no locking; the hook fires
// outside the tracer lock, which is what makes the LastEvents
// call-back safe.
type sentinel struct {
	tracer        *obs.Tracer
	bound         uint64
	margin        float64 // percent
	maxCaptures   int
	captureNewMax bool

	// Capture identity, stamped on every dump.
	worker    int
	seed      uint64
	configKey string
	ops       *uint64 // the runner's op counter

	violations uint64
	nearMax    uint64
	maxSeen    uint64
	captures   []Capture
}

func newSentinel(tr *obs.Tracer, bound uint64, marginPercent float64, maxCaptures int, captureNewMax bool) *sentinel {
	return &sentinel{
		tracer:        tr,
		bound:         bound,
		margin:        marginPercent,
		maxCaptures:   maxCaptures,
		captureNewMax: captureNewMax,
	}
}

// sample is the tracer hook. With no bound configured the sentinel
// only tracks the observed maximum (and, in capture-new-max mode,
// still dumps the flight recorder on each new maximum).
func (s *sentinel) sample(sm obs.Sample) {
	reason := ""
	if s.bound > 0 {
		switch {
		case sm.Latency > s.bound:
			s.violations++
			reason = "violation"
		case sm.Latency > s.maxSeen &&
			float64(sm.Latency) >= float64(s.bound)*(1-s.margin/100):
			s.nearMax++
			reason = "near-max"
		}
	}
	if reason == "" && s.captureNewMax && sm.Latency > s.maxSeen {
		reason = "new-max"
	}
	if sm.Latency > s.maxSeen {
		s.maxSeen = sm.Latency
	}
	if reason != "" && len(s.captures) < s.maxCaptures {
		s.captures = append(s.captures, Capture{
			Sample: sm,
			Reason: reason,
			Worker: s.worker,
			Seed:   s.seed,
			Op:     *s.ops,
			Config: s.configKey,
			Events: s.tracer.LastEvents(flightEvents),
		})
	}
}

// status summarises the sentinel for the exposition layer.
func (s *sentinel) status() obs.BoundStatus {
	return obs.BoundStatus{
		Cycles:        s.bound,
		MarginPercent: s.margin,
		Violations:    s.violations,
		NearMax:       s.nearMax,
		Captures:      uint64(len(s.captures)),
	}
}
