package konfig

import (
	"context"
	"slices"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/wcet"
)

// TestBoundMatchesAnalyze: Bound is AnalyzeContext without the path.
// On every DefaultSpace point of both backends and every point of the
// legacy soak matrix, for each swept entry, Bound on a shared cache
// equals the Cycles of a cold, uncached AnalyzeContext. An
// AnalyzeContext after the Bound on the same cache adds no entry, and
// returns the cold analysis's Cycles, Counts and Trace.
func TestBoundMatchesAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("every lattice point analysed twice: skipped in -short")
	}
	ctx := context.Background()
	var points []Point
	for _, id := range arch.BackendIDs() {
		sp, err := DefaultSpace(id)
		if err != nil {
			t.Fatal(err)
		}
		swept, err := Enumerate(sp)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := LegacySoakMatrix(id)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, swept...)
		for _, np := range legacy {
			points = append(points, np.Point)
		}
	}

	shared := wcet.NewCache()
	for _, p := range points {
		bounded, err := p.Analyzer(shared, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.Analyzer(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sweepEntries {
			b, err := bounded.Bound(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.AnalyzeContext(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			if b != want.Cycles {
				t.Errorf("%s %s: Bound %d, AnalyzeContext %d", p.Hash(), e, b, want.Cycles)
			}

			entries := shared.Stats().Entries
			got, err := bounded.AnalyzeContext(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			if n := shared.Stats().Entries; n != entries {
				t.Errorf("%s %s: AnalyzeContext after Bound grew the cache from %d to %d entries", p.Hash(), e, entries, n)
			}
			if got.Cycles != want.Cycles || !slices.Equal(got.Counts, want.Counts) {
				t.Errorf("%s %s: cycles or counts differ from a cold analysis", p.Hash(), e)
			}
			if !slices.EqualFunc(got.Trace, want.Trace, func(g, w *kimage.Block) bool {
				return g.Addr == w.Addr && g.Name == w.Name
			}) {
				t.Errorf("%s %s: trace of %d blocks differs from a cold analysis's %d", p.Hash(), e, len(got.Trace), len(want.Trace))
			}
		}
	}
	t.Logf("%d points × %d entries; shared cache %+v", len(points), len(sweepEntries), shared.Stats())
}
