package verikern

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"verikern/internal/kbin"
	"verikern/internal/kimage"
	"verikern/internal/konfig"
	"verikern/internal/obs"
	"verikern/internal/wcet"
)

// sameAnalysis reports how a Result computed through the shared cache
// differs from one computed without a cache, or "" when the bound, the
// counts, the worst-case path and the ILP size all agree. The path is
// compared by block address: the cached Result may come from another
// image object with the same content.
func sameAnalysis(got, want *wcet.Result) string {
	addrs := func(trace []*kimage.Block) []uint32 {
		out := make([]uint32, len(trace))
		for i, b := range trace {
			out[i] = b.Addr
		}
		return out
	}
	switch {
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("Cycles %d, uncached %d", got.Cycles, want.Cycles)
	case !slices.Equal(got.Counts, want.Counts):
		return fmt.Sprintf("Counts %v, uncached %v", got.Counts, want.Counts)
	case !slices.Equal(addrs(got.Trace), addrs(want.Trace)):
		return fmt.Sprintf("a %d-block Trace, uncached %d blocks", len(got.Trace), len(want.Trace))
	case got.LPVars != want.LPVars || got.LPConstraints != want.LPConstraints:
		return fmt.Sprintf("LP %d×%d, uncached %d×%d", got.LPConstraints, got.LPVars, want.LPConstraints, want.LPVars)
	}
	return ""
}

// checkAgainstUncached analyses entry through a on the shared cache and
// through a copy without a cache, and fails on any difference.
func checkAgainstUncached(t *testing.T, a *wcet.Analyzer, entry, label string) {
	t.Helper()
	got, err := a.AnalyzeContext(context.Background(), entry)
	if err != nil {
		t.Fatalf("%s %s: %v", label, entry, err)
	}
	cold := *a
	cold.Cache, cold.Metrics = nil, nil
	want, err := cold.AnalyzeContext(context.Background(), entry)
	if err != nil {
		t.Fatalf("%s %s uncached: %v", label, entry, err)
	}
	if d := sameAnalysis(got, want); d != "" {
		t.Errorf("%s %s: cached %s", label, entry, d)
	}
}

// TestPreparedBasisMatchesUncached: on a cold shared cache, whose
// prepared tier hands one phase-1 basis to every analysis over the same
// constraint rows, each analysis of a two-backend sweep and of a paper
// regeneration gives the Result an analysis without a cache computes.
// After the analyses checked here, running the shipped sweep or paper
// drivers on the same cache adds no entry: they analyse nothing that
// was not checked.
func TestPreparedBasisMatchesUncached(t *testing.T) {
	ctx := context.Background()
	defer ResetAnalysisCache()
	entries := []string{kbin.EntrySyscall, kbin.EntryInterrupt, kbin.EntryPageFault, kbin.EntryUndefined}

	t.Run("sweep", func(t *testing.T) {
		ResetAnalysisCache()
		// Analyse the points concurrently, as the sweep's workers
		// do, so that lookups of one constraint set race.
		var wg sync.WaitGroup
		for _, id := range Architectures() {
			sp, err := konfig.DefaultSpace(id)
			if err != nil {
				t.Fatal(err)
			}
			points, err := konfig.Enumerate(sp)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, p := range points {
				if seen[p.AnalysisKey()] {
					continue
				}
				seen[p.AnalysisKey()] = true
				wg.Add(1)
				go func(p konfig.Point) {
					defer wg.Done()
					a, err := p.Analyzer(analysisCache, nil)
					if err != nil {
						t.Error(err)
						return
					}
					for _, e := range entries {
						checkAgainstUncached(t, a, e, p.Hash())
					}
				}(p)
			}
		}
		wg.Wait()
		before := AnalysisCacheStats().Entries
		if _, err := ParetoSweep(ctx, nil, 7, 16, 4); err != nil {
			t.Fatal(err)
		}
		if after := AnalysisCacheStats().Entries; after != before {
			t.Errorf("the sweep added %d cache entries the check did not cover", after-before)
		}
	})

	t.Run("paper", func(t *testing.T) {
		ResetAnalysisCache()
		hws := []Hardware{{}, {L2Enabled: true}, {L2Enabled: true, L2LockedKernel: true}}
		for _, c := range Fig9Configs {
			hws = append(hws, c.HW)
		}
		for _, modern := range []bool{true, false} {
			for _, pinned := range []bool{false, true} {
				np, err := konfig.LegacyPoint("", modern, pinned)
				if err != nil {
					t.Fatal(err)
				}
				im, hw, err := BuildImagePoint(np.Point)
				if err != nil {
					t.Fatal(err)
				}
				for _, hw := range append([]Hardware{hw}, hws...) {
					for _, e := range entries {
						checkAgainstUncached(t, im.analyzer(hw), e, np.Name)
					}
				}
			}
		}
		before := AnalysisCacheStats().Entries
		regeneratePaper(t)
		if _, err := AblationL2Lock(ctx); err != nil {
			t.Fatal(err)
		}
		if after := AnalysisCacheStats().Entries; after != before {
			t.Errorf("the paper drivers added %d cache entries the check did not cover", after-before)
		}
	})
}

// regeneratePaper runs the drivers of one paper regeneration: the
// tables, the figures, both headlines and the fastpath count.
func regeneratePaper(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	if _, err := Table1(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Table2(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig8(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for _, l2 := range []bool{false, true} {
		if _, err := ComputeHeadline(ctx, l2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FastpathCycles(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedOncePerConstraintSet: phase 1 runs once per distinct
// constraint set. A cold two-backend sweep (kzm-sim -sweep -sweep-ops
// 64) analyses 80 entry points over 6 sets, at any worker count, and a
// cold paper regeneration 16 over 6. Classification's phase 1 likewise
// runs once per class key: the sweep's 80 analyses read 32 class
// vectors (48 wcet.class_hits), and the paper's 16 read 12 (4 hits).
func TestPreparedOncePerConstraintSet(t *testing.T) {
	ctx := context.Background()
	defer ResetAnalysisCache()
	defer ObservePipeline(nil)
	run := func(t *testing.T, regenerate func(t *testing.T)) map[string]uint64 {
		t.Helper()
		m := obs.NewMetrics()
		ObservePipeline(m)
		ResetAnalysisCache()
		regenerate(t)
		ObservePipeline(nil)
		c := m.Stats().Counters
		t.Logf("ilp.prepares %d, ilp.prepare_hits %d, wcet.class_hits %d, wcet.entries_analyzed %d, ilp.pivots %d",
			c["ilp.prepares"], c["ilp.prepare_hits"], c["wcet.class_hits"], c["wcet.entries_analyzed"], c["ilp.pivots"])
		return c
	}
	for _, workers := range []int{4, 1} {
		t.Run(fmt.Sprintf("sweep-workers-%d", workers), func(t *testing.T) {
			c := run(t, func(t *testing.T) {
				if _, err := ParetoSweep(ctx, nil, 7, 64, workers); err != nil {
					t.Fatal(err)
				}
			})
			if c["ilp.prepares"] != 6 || c["wcet.entries_analyzed"] != 80 || c["ilp.prepare_hits"] != 74 {
				t.Errorf("ilp.prepares %d, ilp.prepare_hits %d over %d analyses; want 6 and 74 over 80",
					c["ilp.prepares"], c["ilp.prepare_hits"], c["wcet.entries_analyzed"])
			}
			if c["wcet.class_hits"] != 48 {
				t.Errorf("wcet.class_hits %d over 80 analyses; want 48 (32 class keys)", c["wcet.class_hits"])
			}
		})
	}
	t.Run("paper", func(t *testing.T) {
		c := run(t, regeneratePaper)
		if c["ilp.prepares"] != 6 || c["wcet.entries_analyzed"] != 16 || c["ilp.prepare_hits"] != 10 {
			t.Errorf("ilp.prepares %d, ilp.prepare_hits %d over %d analyses; want 6 and 10 over 16",
				c["ilp.prepares"], c["ilp.prepare_hits"], c["wcet.entries_analyzed"])
		}
		if c["wcet.class_hits"] != 4 {
			t.Errorf("wcet.class_hits %d over 16 analyses; want 4 (12 class keys)", c["wcet.class_hits"])
		}
	})
}
