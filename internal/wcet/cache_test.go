package wcet

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/obs"
	"verikern/internal/passes"
)

// cacheImage builds a multi-entry image with loops, loads and branches
// — enough structure to exercise every pass.
func cacheImage(t *testing.T) *kimage.Image {
	t.Helper()
	img := kimage.New()
	data := img.Data("d", 8*1024)
	for _, n := range []string{"e1", "e2", "e3", "e4", "e5", "e6"} {
		b := img.NewFunc(n)
		b.ALU(4)
		b.Load(data)
		b.Loop(8, func(b *kimage.FuncBuilder) {
			b.LoadStride(data+1024, 32, 4)
			b.ALU(1)
		})
		b.If(func(b *kimage.FuncBuilder) { b.Store(data + 64) },
			func(b *kimage.FuncBuilder) { b.ALU(3) })
		b.Ret()
	}
	img.Entries = []string{"e1", "e2", "e3", "e4", "e5", "e6"}
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	return img
}

func cachedAnalyzer(img *kimage.Image, hw arch.Config, c *passes.Cache) *Analyzer {
	a := New(img, hw)
	a.Cache = c
	a.Metrics = obs.NewMetrics()
	return a
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := passes.NewCache()
	a := cachedAnalyzer(cacheImage(t), arch.Config{}, c)

	if _, err := a.Analyze("e1"); err != nil {
		t.Fatal(err)
	}
	cold := c.Stats()
	if cold.Hits != 0 {
		t.Errorf("cold run recorded %d hits, want 0", cold.Hits)
	}
	// Result lookup + four pass lookups all missed.
	if cold.Misses != 5 {
		t.Errorf("cold run recorded %d misses, want 5", cold.Misses)
	}

	if _, err := a.Analyze("e1"); err != nil {
		t.Fatal(err)
	}
	warm := c.Stats()
	if warm.Hits != 1 {
		t.Errorf("warm run recorded %d hits, want 1 (whole-result hit)", warm.Hits)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("warm run added misses: %d -> %d", cold.Misses, warm.Misses)
	}

	// The analyzer's metrics registry mirrors the cache counters, so
	// -trace output shows cache effectiveness.
	counters := a.Metrics.Stats().Counters
	if counters["passcache.hits"] != 1 || counters["passcache.hit.result"] != 1 {
		t.Errorf("metrics counters = %v, want passcache.hits=1 and passcache.hit.result=1", counters)
	}
	if counters["wcet.entries_cached"] != 1 || counters["wcet.entries_analyzed"] != 1 {
		t.Errorf("metrics counters = %v, want one cached and one analyzed entry", counters)
	}
}

// TestCachedResultEquivalence: a Result served from the cache — warmed
// by a *different* Analyzer over a *different* (but identically built)
// image — is indistinguishable from an uncached analysis.
func TestCachedResultEquivalence(t *testing.T) {
	hw := arch.Config{L2Enabled: true}
	cons := []UserConstraint{ExecutesAtMost("e2", "entry0", 1)}

	cold := New(cacheImage(t), hw)
	cold.AddConstraints(cons...)
	want, err := cold.Analyze("e2")
	if err != nil {
		t.Fatal(err)
	}

	c := passes.NewCache()
	warmer := cachedAnalyzer(cacheImage(t), hw, c)
	warmer.AddConstraints(cons...)
	if _, err := warmer.Analyze("e2"); err != nil {
		t.Fatal(err)
	}
	reader := cachedAnalyzer(cacheImage(t), hw, c)
	reader.AddConstraints(cons...)
	got, err := reader.Analyze("e2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits == 0 {
		t.Fatal("second analyzer did not hit the shared cache")
	}

	if got.Cycles != want.Cycles || got.Micros != want.Micros {
		t.Errorf("cached bound %d (%f µs) != uncached %d (%f µs)",
			got.Cycles, got.Micros, want.Cycles, want.Micros)
	}
	if got.Classified != want.Classified {
		t.Errorf("cached classification %+v != uncached %+v", got.Classified, want.Classified)
	}
	if got.LPVars != want.LPVars || got.LPConstraints != want.LPConstraints {
		t.Errorf("cached ILP size %d/%d != uncached %d/%d",
			got.LPVars, got.LPConstraints, want.LPVars, want.LPConstraints)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("count vector length %d != %d", len(got.Counts), len(want.Counts))
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Errorf("node %d count %d != %d", i, got.Counts[i], want.Counts[i])
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace length %d != %d", len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		if got.Trace[i].Addr != want.Trace[i].Addr || got.Trace[i].Name != want.Trace[i].Name {
			t.Errorf("trace[%d] = %s@%#x != %s@%#x", i,
				got.Trace[i].Name, got.Trace[i].Addr, want.Trace[i].Name, want.Trace[i].Addr)
		}
	}
}

// TestCacheInvalidation: changing the hardware config or the
// constraint set changes the content-addressed keys, so the cached
// solve/result artifacts are not reused — while the CFG (a function of
// image and entry alone) still is.
func TestCacheInvalidation(t *testing.T) {
	img := cacheImage(t)
	c := passes.NewCache()

	a1 := cachedAnalyzer(img, arch.Config{}, c)
	r1, err := a1.Analyze("e1")
	if err != nil {
		t.Fatal(err)
	}

	// Different hardware: result must be recomputed (and differs);
	// the CFG pass is shared.
	a2 := cachedAnalyzer(img, arch.Config{L2Enabled: true}, c)
	r2, err := a2.Analyze("e1")
	if err != nil {
		t.Fatal(err)
	}
	m2 := a2.Metrics.Stats().Counters
	if m2["wcet.entries_cached"] != 0 {
		t.Error("hardware change served a stale cached result")
	}
	if m2["passcache.hit.cfg"] != 1 {
		t.Errorf("CFG not shared across hardware configs: %v", m2)
	}
	if r2.Cycles == r1.Cycles {
		t.Errorf("L2-on bound %d equals L2-off bound — suspicious reuse", r2.Cycles)
	}

	// Different constraints: classification is shared (keyed by
	// image+hw), solve and result are not.
	a3 := cachedAnalyzer(img, arch.Config{}, c)
	a3.AddConstraints(ExecutesAtMost("e1", "entry0", 1))
	if _, err := a3.Analyze("e1"); err != nil {
		t.Fatal(err)
	}
	m3 := a3.Metrics.Stats().Counters
	if m3["wcet.entries_cached"] != 0 {
		t.Error("constraint change served a stale cached result")
	}
	if m3["passcache.hit.classify"] != 1 {
		t.Errorf("classification not shared across constraint sets: %v", m3)
	}
	if m3["passcache.hit.solve"] != 0 {
		t.Errorf("solve artifact unsoundly shared across constraint sets: %v", m3)
	}

	// KeepLP also keys the solve: flipping it cannot reuse a
	// solution missing its LP text.
	a4 := cachedAnalyzer(img, arch.Config{}, c)
	a4.KeepLP = true
	r4, err := a4.Analyze("e1")
	if err != nil {
		t.Fatal(err)
	}
	if r4.LPText == "" {
		t.Error("KeepLP analysis served a cached solution without LP text")
	}
}

// TestParallelRespectsWorkerBound: with Workers=2 and all workers
// blocked, no third entry is ever picked up.
func TestParallelRespectsWorkerBound(t *testing.T) {
	a := New(cacheImage(t), arch.Config{})
	a.Workers = 2

	started := make(chan string, 16)
	release := make(chan struct{})
	analyzeWorkerHook = func(entry string) {
		started <- entry
		<-release
	}
	defer func() { analyzeWorkerHook = nil }()

	done := make(chan error, 1)
	go func() {
		_, err := a.AnalyzeAllParallelOrdered(context.Background())
		done <- err
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started")
		}
	}
	select {
	case e := <-started:
		t.Fatalf("third entry %q picked up with only 2 workers allowed", e)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestParallelCancellation: a cancelled context aborts the fan-out and
// surfaces context.Canceled.
func TestParallelCancellation(t *testing.T) {
	a := New(cacheImage(t), arch.Config{})
	a.Workers = 1

	ctx, cancel := context.WithCancel(context.Background())
	var picked atomic.Int32
	analyzeWorkerHook = func(string) {
		if picked.Add(1) == 1 {
			cancel()
		}
	}
	defer func() { analyzeWorkerHook = nil }()

	_, err := a.AnalyzeAllParallelOrdered(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := picked.Load(); n > 2 {
		t.Errorf("%d entries picked up after cancellation", n)
	}

	// Pre-cancelled context: nothing runs at all.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	picked.Store(0)
	if _, err := a.AnalyzeAllParallelOrdered(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestParallelAggregatesAllErrors: when several entries fail, every
// failure is reported, not just the first.
func TestParallelAggregatesAllErrors(t *testing.T) {
	img := cacheImage(t)
	a := New(img, arch.Config{})
	// An entry block trivially executes once; bounding it to zero
	// executions is contradictory, for every entry it names.
	a.AddConstraints(
		ExecutesAtMost("e2", "entry0", 0),
		ExecutesAtMost("e5", "entry0", 0),
	)
	_, err := a.AnalyzeAllParallelOrdered(context.Background())
	if err == nil {
		t.Fatal("contradictory constraints did not fail")
	}
	for _, entry := range []string{"e2", "e5"} {
		if !strings.Contains(err.Error(), entry) {
			t.Errorf("aggregated error missing entry %s: %v", entry, err)
		}
	}
}
