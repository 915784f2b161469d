package konfig

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/obs"
	"verikern/internal/soak"
	"verikern/internal/wcet"
)

// sweepDoc runs one DefaultSpace sweep on cva6rt (the smaller feasible
// sub-lattice: 20 points) and serialises it.
func sweepDoc(t *testing.T, c *wcet.Cache, workers int) ([]byte, *ArchSweep) {
	t.Helper()
	sp, err := DefaultSpace("cva6rt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Sweep(context.Background(), c, nil, sp, 7, 96, workers)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(&ParetoBench{Seed: 7, Ops: 96, Archs: []ArchSweep{*sw}})
	if err != nil {
		t.Fatal(err)
	}
	return doc, sw
}

// TestSweepDeterminism holds BENCH_pareto.json byte-identical across
// repeated runs and across worker counts: rows land in enumeration
// order and each is a pure function of (point, seed, ops).
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep: skipped in -short")
	}
	first, sw := sweepDoc(t, wcet.NewCache(), 1)
	if len(sw.Points) < 10 {
		t.Fatalf("cva6rt DefaultSpace swept %d points, want a real sub-lattice", len(sw.Points))
	}
	for _, workers := range []int{1, 3, 8} {
		again, _ := sweepDoc(t, wcet.NewCache(), workers)
		if !bytes.Equal(first, again) {
			t.Fatalf("sweep output with %d workers differs from the single-worker run", workers)
		}
	}
}

// TestSweepFrontierSound holds every frontier non-dominated and
// consistent with the swept points: each frontier point is a real swept
// row, no feasible point strictly dominates it, and WCET is ascending
// along the frontier while SimCycles descends (no point can follow
// another without improving the other axis).
func TestSweepFrontierSound(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep: skipped in -short")
	}
	_, sw := sweepDoc(t, wcet.NewCache(), 4)
	rows := map[string]SweepResult{}
	for _, r := range sw.Points {
		rows[r.Konfig] = r
		if r.Violations != 0 {
			t.Errorf("point %s: %d soak samples above its analysed bound", r.Konfig, r.Violations)
		}
	}
	if len(sw.Frontiers) == 0 {
		t.Fatal("sweep produced no frontiers")
	}
	for _, fr := range sw.Frontiers {
		if len(fr.Points) == 0 {
			t.Errorf("entry %s: empty frontier", fr.Entry)
			continue
		}
		for i, fp := range fr.Points {
			r, ok := rows[fp.Konfig]
			if !ok {
				t.Errorf("entry %s: frontier point %s is not a swept row", fr.Entry, fp.Konfig)
				continue
			}
			if r.WCET[fr.Entry] != fp.WCETCycles || r.SimCycles != fp.SimCycles {
				t.Errorf("entry %s: frontier point %s disagrees with its row", fr.Entry, fp.Konfig)
			}
			for _, other := range sw.Points {
				ow, os := other.WCET[fr.Entry], other.SimCycles
				if ow <= fp.WCETCycles && os <= fp.SimCycles && (ow < fp.WCETCycles || os < fp.SimCycles) {
					t.Errorf("entry %s: feasible point %s dominates frontier point %s", fr.Entry, other.Konfig, fp.Konfig)
				}
			}
			if i > 0 {
				prev := fr.Points[i-1]
				if fp.WCETCycles < prev.WCETCycles {
					t.Errorf("entry %s: frontier not sorted by WCET", fr.Entry)
				}
				if fp.WCETCycles > prev.WCETCycles && fp.SimCycles >= prev.SimCycles {
					t.Errorf("entry %s: frontier point %s trades worse WCET for no throughput gain", fr.Entry, fp.Konfig)
				}
			}
		}
	}
}

// TestSweepCacheLeverage holds the analysis cache doing
// its job across the lattice: a cold sweep misses far fewer artifacts
// than analyzing every point in isolation (shared-prefix configs
// re-analyze nearly free), and a warm identical sweep is all hits —
// not a single new miss.
func TestSweepCacheLeverage(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep: skipped in -short")
	}
	ctx := context.Background()
	c := wcet.NewCache()
	_, sw := sweepDoc(t, c, 4)
	cold := c.Stats()
	if cold.Misses == 0 {
		t.Fatal("cold sweep hit an empty cache")
	}

	// Baseline: every point analyzed against its own private cache —
	// the cost the lattice sweep would pay without content addressing.
	sp, err := DefaultSpace("cva6rt")
	if err != nil {
		t.Fatal(err)
	}
	points, err := Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	var isolated uint64
	for _, p := range points {
		pc := wcet.NewCache()
		a, err := p.Analyzer(pc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analyze(ctx, a); err != nil {
			t.Fatal(err)
		}
		isolated += pc.Stats().Misses
	}
	if cold.Misses*2 >= isolated {
		t.Errorf("cold sweep missed %d artifacts vs %d isolated — shared-prefix reuse below 2x", cold.Misses, isolated)
	}

	// Warm identical sweep: every lookup must hit.
	_, _ = sweepDoc(t, c, 4)
	warm := c.Stats()
	warmHits, warmMisses := warm.Hits-cold.Hits, warm.Misses-cold.Misses
	if warmHits == 0 {
		t.Error("warm sweep did not touch the cache")
	}
	if hitRate := float64(warmHits) / float64(warmHits+warmMisses); hitRate < 0.99 {
		t.Errorf("warm sweep hit rate %.2f (%d hits / %d misses), want >= 0.99", hitRate, warmHits, warmMisses)
	}
	if len(sw.Points) != len(points) {
		t.Fatalf("sweep rows %d != enumerated points %d", len(sw.Points), len(points))
	}
}

// perPointRows soaks every stamped campaign on its own at its own
// bound: the rows the shared soaks must reproduce.
func perPointRows(t *testing.T, campaigns []soak.Config, bounds []uint64) ([]soakRow, []*obs.Snapshot) {
	t.Helper()
	rows := make([]soakRow, len(campaigns))
	snaps := make([]*obs.Snapshot, len(campaigns))
	for i, cfg := range campaigns {
		cfg.BoundCycles = bounds[i]
		rep, err := soak.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Snapshot
		rows[i] = soakRow{SimCycles: s.SimCycles, Ops: s.Ops, Violations: s.Bound.Violations}
		snaps[i] = s
	}
	return rows, snaps
}

// checkRows reports the first shared row that differs from its
// per-point run.
func checkRows(t *testing.T, what string, got, want []soakRow) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: point %d of %d: shared row %+v, per-point run %+v", what, i, len(want), got[i], want[i])
			return
		}
	}
}

// TestSharedSoaksMatchPerPointRuns holds the sweep's one-soak-per-
// execution-identity rows equal to a per-point soak.Run of each stamped
// campaign at its own bound, on both backends, and forces the fallback:
// with one member's bound below its group's observed maximum, the rows,
// that member's exact violation count included, still equal the
// per-point runs, and each other member of the group is re-run.
func TestSharedSoaksMatchPerPointRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("per-point soaks of both lattices: skipped in -short")
	}
	ctx := context.Background()
	for _, id := range []string{arch.ARM1136ID, arch.CVA6RTID} {
		sp, err := DefaultSpace(id)
		if err != nil {
			t.Fatal(err)
		}
		points, err := Enumerate(sp)
		if err != nil {
			t.Fatal(err)
		}
		analyses, err := analyzePoints(ctx, wcet.NewCache(), nil, points, 4)
		if err != nil {
			t.Fatal(err)
		}
		campaigns, err := SweepCampaigns(points, 7, 64)
		if err != nil {
			t.Fatal(err)
		}
		bounds := make([]uint64, len(points))
		for i, an := range analyses {
			bounds[i] = an.bound
		}
		_, groups := groupBy(len(campaigns), func(i int) soak.Config { return executionIdentity(campaigns[i]) })
		if len(groups) >= len(points) {
			t.Fatalf("%s: %d execution identities over %d points: nothing is shared", id, len(groups), len(points))
		}

		want, snaps := perPointRows(t, campaigns, bounds)
		m := obs.NewMetrics()
		got, err := soakPoints(ctx, m, campaigns, bounds, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, id, got, want)
		c := m.Stats().Counters
		if c["konfig.sweep_soaks"] != uint64(len(groups)) || c["konfig.sweep_soak_reruns"] != 0 {
			t.Errorf("%s: %d soaks, %d reruns; want %d soaks, 0 reruns", id, c["konfig.sweep_soaks"], c["konfig.sweep_soak_reruns"], len(groups))
		}

		// Fallback: the last member of the largest group gets a bound
		// one cycle below what its group observes.
		var members []int
		for _, g := range groups {
			if len(g) > len(members) {
				members = g
			}
		}
		victim := members[len(members)-1]
		max := snaps[victim].IRQ.Max
		if max < 2 {
			t.Fatalf("%s: group observed maximum %d cycles; the fallback needs a sample to exceed", id, max)
		}
		forced := append([]uint64(nil), bounds...)
		forced[victim] = max - 1
		want, _ = perPointRows(t, campaigns, forced)
		if want[victim].Violations == 0 {
			t.Fatalf("%s: a bound below the observed maximum saw no violation", id)
		}
		m = obs.NewMetrics()
		got, err = soakPoints(ctx, m, campaigns, forced, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, id+" fallback", got, want)
		c = m.Stats().Counters
		if c["konfig.sweep_soaks"] != uint64(len(groups)) || c["konfig.sweep_soak_reruns"] != uint64(len(members)-1) {
			t.Errorf("%s: fallback ran %d soaks, %d reruns; want %d soaks, %d reruns", id, c["konfig.sweep_soaks"], c["konfig.sweep_soak_reruns"], len(groups), len(members)-1)
		}
	}
}

// TestSweepWorkCounts holds a cold two-backend sweep to each distinct
// piece of work once, at any worker count: 8 images (4 kernel builds
// per backend), 20 analyses (16 projections on the ARM1136, whose L2
// and predictor split each image 4 ways; 4 on CVA6-RT), 20 soaks (10
// execution identities per backend) and no reruns.
func TestSweepWorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("two-backend sweeps: skipped in -short")
	}
	want := map[string]uint64{
		"konfig.sweep_images":      8,
		"konfig.sweep_analyses":    20,
		"konfig.sweep_soaks":       20,
		"konfig.sweep_soak_reruns": 0,
	}
	for _, workers := range []int{1, 4} {
		m := obs.NewMetrics()
		c := wcet.NewCache()
		for _, id := range []string{arch.ARM1136ID, arch.CVA6RTID} {
			sp, err := DefaultSpace(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Sweep(context.Background(), c, m, sp, 42, 48, workers); err != nil {
				t.Fatal(err)
			}
		}
		got := m.Stats().Counters
		for name, n := range want {
			if got[name] != n {
				t.Errorf("%d workers: %s = %d, want %d", workers, name, got[name], n)
			}
		}
	}
}
