package wcet_test

import (
	"context"
	"testing"

	"verikern/internal/kbin"
	"verikern/internal/konfig"
	"verikern/internal/obs"
	"verikern/internal/wcet"
)

// TestSweepCacheBound holds the cache to its stated bound on a real
// lattice sweep: a cold cva6rt DefaultSpace sweep leaves exactly one
// graph per distinct (image, entry) and one Result per distinct result
// key, and a warm re-sweep adds nothing.
func TestSweepCacheBound(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep: skipped in -short")
	}
	ctx := context.Background()
	sp, err := konfig.DefaultSpace("cva6rt")
	if err != nil {
		t.Fatal(err)
	}
	c := wcet.NewCache()
	if _, err := konfig.Sweep(ctx, c, nil, sp, 7, 96, 4); err != nil {
		t.Fatal(err)
	}
	cold := c.Stats()

	points, err := konfig.Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	graphs, results := map[string]bool{}, map[string]bool{}
	for _, p := range points {
		img, cons, hw, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		a := wcet.New(img, hw)
		a.AddConstraints(cons...)
		for _, e := range []string{kbin.EntrySyscall, kbin.EntryInterrupt, kbin.EntryPageFault, kbin.EntryUndefined} {
			graphs[wcet.GraphKey(a, e)] = true
			results[wcet.ResultKey(a, e)] = true
		}
	}
	if want := len(graphs) + len(results); cold.Entries != want {
		t.Errorf("cold sweep left %d entries, want %d (%d graphs + %d results)",
			cold.Entries, want, len(graphs), len(results))
	}
	t.Logf("%d points: %d graphs + %d results", len(points), len(graphs), len(results))

	if _, err := konfig.Sweep(ctx, c, nil, sp, 7, 96, 4); err != nil {
		t.Fatal(err)
	}
	if warm := c.Stats(); warm.Entries != cold.Entries {
		t.Errorf("warm re-sweep grew the cache from %d to %d entries", cold.Entries, warm.Entries)
	}
}

// TestSweepClassTierBound holds the class and rows tiers to their
// stated bounds: a cold two-backend DefaultSpace sweep leaves exactly
// one class vector per distinct class key and one row set per distinct
// rows key, 32 of each for its 80 results, and computes each once, so
// the other 48 lookups of each are wcet.class_hits and wcet.row_hits.
// A warm re-sweep adds no vector or row set and runs no fixpoint, and
// Reset empties both tiers.
func TestSweepClassTierBound(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep: skipped in -short")
	}
	ctx := context.Background()
	c := wcet.NewCache()
	m := obs.NewMetrics()
	classKeys, rowKeys, results := map[string]bool{}, map[string]bool{}, map[string]bool{}
	sweep := func() {
		t.Helper()
		for _, id := range []string{"arm1136", "cva6rt"} {
			sp, err := konfig.DefaultSpace(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := konfig.Sweep(ctx, c, m, sp, 7, 48, 4); err != nil {
				t.Fatal(err)
			}
			points, err := konfig.Enumerate(sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range points {
				img, cons, hw, err := p.Build()
				if err != nil {
					t.Fatal(err)
				}
				a := wcet.New(img, hw)
				a.AddConstraints(cons...)
				for _, e := range kbin.Entries {
					classKeys[wcet.ClassKey(a, e)] = true
					rowKeys[wcet.RowsKey(a, e)] = true
					results[wcet.ResultKey(a, e)] = true
				}
			}
		}
	}
	sweep()
	cold := m.Stats().Counters
	if got := wcet.ClassEntries(c); got != len(classKeys) || got != 32 || len(results) != 80 {
		t.Errorf("cold sweep left %d class vectors for %d class keys and %d results; want 32 for 80", got, len(classKeys), len(results))
	}
	if hits := cold["wcet.class_hits"]; hits != uint64(len(results)-len(classKeys)) {
		t.Errorf("cold sweep: %d wcet.class_hits over %d analyses and %d class keys", hits, len(results), len(classKeys))
	}
	if got := wcet.RowEntries(c); got != len(rowKeys) || got != 32 {
		t.Errorf("cold sweep left %d row sets for %d rows keys; want 32", got, len(rowKeys))
	}
	if hits := cold["wcet.row_hits"]; hits != uint64(len(results)-len(rowKeys)) {
		t.Errorf("cold sweep: %d wcet.row_hits over %d analyses and %d rows keys", hits, len(results), len(rowKeys))
	}

	sweep()
	warm := m.Stats().Counters
	if got := wcet.ClassEntries(c); got != len(classKeys) {
		t.Errorf("warm re-sweep grew the class tier from %d to %d vectors", len(classKeys), got)
	}
	if got := wcet.RowEntries(c); got != len(rowKeys) {
		t.Errorf("warm re-sweep grew the rows tier from %d to %d row sets", len(rowKeys), got)
	}
	if warm["classify.fixpoint_sweeps"] != cold["classify.fixpoint_sweeps"] {
		t.Errorf("warm re-sweep ran the fixpoint: classify.fixpoint_sweeps %d -> %d",
			cold["classify.fixpoint_sweeps"], warm["classify.fixpoint_sweeps"])
	}

	c.Reset()
	if got, rows := wcet.ClassEntries(c), wcet.RowEntries(c); got != 0 || rows != 0 {
		t.Errorf("Reset left %d class vectors and %d row sets", got, rows)
	}
}
