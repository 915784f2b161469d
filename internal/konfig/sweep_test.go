package konfig

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

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
		if _, err := analyze(ctx, pc, nil, p); err != nil {
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
