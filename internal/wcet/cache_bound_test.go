package wcet_test

import (
	"context"
	"testing"

	"verikern/internal/kbin"
	"verikern/internal/konfig"
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
