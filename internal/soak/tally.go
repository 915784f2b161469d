package soak

import (
	"verikern/internal/arch"
	"verikern/internal/obs"
)

// Tally is the additive record of what a soak observed, and the one
// statement of what its snapshot counts. A report is the sum of its
// runners' tallies; a fleet worker streams differences of its runner's
// tallies, and the coordinator sums them.
type Tally struct {
	Ops, SimCycles   uint64
	Emitted, Dropped uint64 // tracer-ring events
	// Kinds counts events by obs.Kind; Sources holds the interrupt
	// latencies by the obs.Op in progress when the interrupt latched.
	Kinds   [obs.NumKinds]uint64
	Sources [obs.NumOps]obs.Histogram
	// Violations, NearMax and Captures are the bound sentinel's counts.
	Violations, NearMax, Captures uint64
}

// Tally fills t with everything the runner has observed so far,
// without allocating.
func (r *Runner) Tally(t *Tally) {
	t.Ops, t.SimCycles = r.ops, r.k.Now()
	t.Emitted, t.Dropped = r.tracer.Totals(&t.Kinds, &t.Sources)
	t.Violations, t.NearMax = r.sent.violations, r.sent.nearMax
	t.Captures = uint64(len(r.sent.captures))
}

// Add folds o into t. Histograms merge exactly.
func (t *Tally) Add(o *Tally) {
	t.Ops += o.Ops
	t.SimCycles += o.SimCycles
	t.Emitted += o.Emitted
	t.Dropped += o.Dropped
	for k := range t.Kinds {
		t.Kinds[k] += o.Kinds[k]
	}
	for op := range t.Sources {
		t.Sources[op].Merge(&o.Sources[op])
	}
	t.Violations += o.Violations
	t.NearMax += o.NearMax
	t.Captures += o.Captures
}

// Sub turns t into its difference from prev, an earlier tally of the
// same runner. Histograms subtract with obs.Histogram.DeltaSince, which
// keeps their extrema cumulative, so consecutive differences add back
// up to the last tally exactly. It fails if prev is not earlier.
func (t *Tally) Sub(prev *Tally) error {
	t.Ops -= prev.Ops
	t.SimCycles -= prev.SimCycles
	t.Emitted -= prev.Emitted
	t.Dropped -= prev.Dropped
	for k := range t.Kinds {
		t.Kinds[k] -= prev.Kinds[k]
	}
	for op := range t.Sources {
		d, err := t.Sources[op].DeltaSince(&prev.Sources[op])
		if err != nil {
			return err
		}
		t.Sources[op] = d
	}
	t.Violations -= prev.Violations
	t.NearMax -= prev.NearMax
	t.Captures -= prev.Captures
	return nil
}

// Snapshot renders the tally as the snapshot of a soak of cfg, whose
// identity and bound it carries.
func (t *Tally) Snapshot(cfg Config) *obs.Snapshot {
	cfg = cfg.WithDefaults()
	s := obs.NewSnapshot()
	s.Label, s.Arch, s.Config = cfg.Label, arch.MustLookup(cfg.Arch).ID, cfg.ConfigKey
	s.Seed, s.Workers = cfg.Seed, cfg.Workers
	s.Ops, s.SimCycles = t.Ops, t.SimCycles
	s.AddTotals(t.Emitted, t.Dropped, &t.Kinds, &t.Sources)
	s.Bound = &obs.BoundStatus{
		Cycles:        cfg.BoundCycles,
		MarginPercent: cfg.MarginPercent,
		Violations:    t.Violations,
		NearMax:       t.NearMax,
		Captures:      t.Captures,
	}
	return s
}
