package verikern

import (
	"context"
	"fmt"
	"runtime"
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

// TestWarmBasisMatchesUncached: once a full two-backend sweep and a
// paper regeneration have left an optimum kept on every basis of the
// shared cache, every point of the analyser-bounds golden, analysed
// through that cache, gives the Result an analysis without a cache
// computes: the same bound, counts, worst-case path and LP size. The
// points the warm-up did not analyse (232 of 780) solve over bases that
// already keep an optimum, and at least one answer must come from it.
func TestWarmBasisMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("780 analyses, each also without a cache: skipped in -short")
	}
	ctx := context.Background()
	defer ResetAnalysisCache()
	ResetAnalysisCache()
	if _, err := ParetoSweep(ctx, nil, 7, 16, 4); err != nil {
		t.Fatal(err)
	}
	regeneratePaper(t)
	m := obs.NewMetrics()
	for _, id := range Architectures() {
		points, err := konfig.Enumerate(boundsSpace(id))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			a, err := p.Analyzer(analysisCache, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range EntryPoints() {
				checkAgainstUncached(t, a, string(e), p.Hash())
			}
		}
	}
	c := m.Stats().Counters
	t.Logf("%d analyses: ilp.warm_hits %d, ilp.prepares %d, ilp.pivots %d",
		c["wcet.entries_analyzed"], c["ilp.warm_hits"], c["ilp.prepares"], c["ilp.pivots"])
	if c["ilp.warm_hits"] == 0 {
		t.Errorf("no warm answer over %d analyses; the check did not cover the kept optima", c["wcet.entries_analyzed"])
	}
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
// constraint set, and the rows once per distinct (graph, constraint
// set, KeepLP). A cold two-backend sweep (kzm-sim -sweep -sweep-ops 64)
// analyses 80 entry points over 32 row sets (48 wcet.row_hits) and 6
// constraint sets, at any worker count, and a cold paper regeneration
// 16 over 12 row sets and 6 constraint sets. Classification's phase 1
// likewise runs once per class key: the sweep's 80 analyses read 32
// class vectors (48 wcet.class_hits), and the paper's 16 read 12 (4
// hits). With one solve at a time, every solve after the first over a
// basis is answered by the optimum the previous one kept: 74 of the
// sweep's 80 and 10 of the paper's 16 (ilp.warm_hits), with 286 pivots
// each. Above one worker the warm count and the pivots depend on which
// solve of a basis runs first, so they are pinned only at one.
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
		t.Logf("ilp.prepares %d, ilp.prepare_hits %d, wcet.row_hits %d, wcet.class_hits %d, wcet.entries_analyzed %d, ilp.warm_hits %d, ilp.pivots %d",
			c["ilp.prepares"], c["ilp.prepare_hits"], c["wcet.row_hits"], c["wcet.class_hits"], c["wcet.entries_analyzed"], c["ilp.warm_hits"], c["ilp.pivots"])
		return c
	}
	type want struct {
		analyses, rowHits, prepares, prepareHits, classHits uint64
		// warmHits and pivots are checked when exact is set.
		exact            bool
		warmHits, pivots uint64
	}
	check := func(t *testing.T, c map[string]uint64, w want) {
		t.Helper()
		if c["wcet.entries_analyzed"] != w.analyses || c["wcet.row_hits"] != w.rowHits {
			t.Errorf("wcet.row_hits %d over %d analyses; want %d over %d (%d row sets)",
				c["wcet.row_hits"], c["wcet.entries_analyzed"], w.rowHits, w.analyses, w.analyses-w.rowHits)
		}
		if c["ilp.prepares"] != w.prepares || c["ilp.prepare_hits"] != w.prepareHits {
			t.Errorf("ilp.prepares %d, ilp.prepare_hits %d; want %d and %d",
				c["ilp.prepares"], c["ilp.prepare_hits"], w.prepares, w.prepareHits)
		}
		if c["wcet.class_hits"] != w.classHits {
			t.Errorf("wcet.class_hits %d over %d analyses; want %d (%d class keys)",
				c["wcet.class_hits"], w.analyses, w.classHits, w.analyses-w.classHits)
		}
		if w.exact && (c["ilp.warm_hits"] != w.warmHits || c["ilp.pivots"] != w.pivots) {
			t.Errorf("ilp.warm_hits %d, ilp.pivots %d; want %d and %d",
				c["ilp.warm_hits"], c["ilp.pivots"], w.warmHits, w.pivots)
		}
	}
	for _, workers := range []int{4, 1} {
		t.Run(fmt.Sprintf("sweep-workers-%d", workers), func(t *testing.T) {
			c := run(t, func(t *testing.T) {
				if _, err := ParetoSweep(ctx, nil, 7, 64, workers); err != nil {
					t.Fatal(err)
				}
			})
			check(t, c, want{analyses: 80, rowHits: 48, prepares: 6, prepareHits: 26, classHits: 48,
				exact: workers == 1, warmHits: 74, pivots: 286})
		})
	}
	paper := want{analyses: 16, rowHits: 4, prepares: 6, prepareHits: 6, classHits: 4, warmHits: 10, pivots: 286}
	t.Run("paper", func(t *testing.T) {
		// AnalyzeAll's default worker count: concurrent lookups of
		// one key wait on the first.
		check(t, run(t, regeneratePaper), paper)
	})
	t.Run("paper-one-worker", func(t *testing.T) {
		// One worker per AnalyzeAll, so that one solve runs at a
		// time.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		paper.exact = true
		check(t, run(t, regeneratePaper), paper)
	})
}
