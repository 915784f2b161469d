package soak

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"verikern/internal/obs"
)

// TestTallyTelescopes checks the record's algebra on real runs. Over
// random cut points in one runner's run, the differences of
// consecutive tallies add back up to the final tally exactly, as a
// fleet coordinator's sum of a worker's batches must. And a finished
// run's runner tallies, summed and rendered through Snapshot, are the
// soak's report byte for byte, in JSON and in the Prometheus text; so
// is a snapshot folded runner by runner from each tracer and sentinel
// status, the way the benchmark's traced soak assembles one.
func TestTallyTelescopes(t *testing.T) {
	cfg := modernCfg("tally", false)
	cfg.Ops = 3000
	// Below the largest retype latencies, so the sentinel counts move.
	cfg.BoundCycles = 11_000

	rn, err := NewRunner(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var prev, now, delta, sum Tally
	cuts := 0
	for rn.Ops() < cfg.Ops {
		if err := rn.Step(rng.Intn(200)); err != nil {
			t.Fatal(err)
		}
		rn.Tally(&now)
		delta = now
		if err := delta.Sub(&prev); err != nil {
			t.Fatalf("cut %d at op %d: %v", cuts, rn.Ops(), err)
		}
		sum.Add(&delta)
		prev = now
		cuts++
	}
	if sum != now {
		t.Errorf("the %d windows' differences sum to %+v, want the final tally %+v", cuts, sum, now)
	}
	if now.Violations == 0 || now.NearMax == 0 || now.Captures == 0 || now.Dropped == 0 {
		t.Errorf("the run exercised too little: %d violations, %d near-max, %d captures, %d dropped events",
			now.Violations, now.NearMax, now.Captures, now.Dropped)
	}

	rep, runners, err := run(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	resolved := cfg.WithDefaults()
	sum = Tally{}
	folded := obs.NewSnapshot()
	folded.Label, folded.Arch, folded.Seed, folded.Workers = resolved.Label, "arm1136", resolved.Seed, len(runners)
	bound := obs.BoundStatus{Cycles: resolved.BoundCycles, MarginPercent: resolved.MarginPercent}
	for _, rn := range runners {
		rn.Tally(&now)
		sum.Add(&now)
		folded.AddTracer(rn.Tracer())
		folded.Ops += rn.Ops()
		folded.SimCycles += rn.Kernel().Now()
		st := rn.SentinelStatus()
		bound.Violations += st.Violations
		bound.NearMax += st.NearMax
		bound.Captures += st.Captures
	}
	folded.Bound = &bound
	want := render(t, rep.Snapshot)
	for name, s := range map[string]*obs.Snapshot{"summed tallies": sum.Snapshot(cfg), "tracer fold": folded} {
		if got := render(t, s); !bytes.Equal(got, want) {
			t.Errorf("%s render differently from the report:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// render writes a snapshot's JSON document followed by its Prometheus
// text.
func render(t *testing.T, s *obs.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
