package wcet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/obs"
)

// cacheImage builds a multi-entry image with loops, loads and branches
// — enough structure to exercise every stage.
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

func cachedAnalyzer(img *kimage.Image, hw arch.Config, c *Cache) *Analyzer {
	a := New(img, hw)
	a.Cache = c
	a.Metrics = obs.NewMetrics()
	return a
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache()
	a := cachedAnalyzer(cacheImage(t), arch.Config{}, c)

	if _, err := a.Analyze("e1"); err != nil {
		t.Fatal(err)
	}
	cold := c.Stats()
	if cold.Hits != 0 {
		t.Errorf("cold run recorded %d hits, want 0", cold.Hits)
	}
	// Result lookup + CFG lookup both missed.
	if cold.Misses != 2 {
		t.Errorf("cold run recorded %d misses, want 2", cold.Misses)
	}
	if cold.Entries != 2 {
		t.Errorf("cold run left %d entries, want 2 (one graph, one result)", cold.Entries)
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

	c := NewCache()
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
// constraint set changes the result key, so the cached Result is not
// reused — while the CFG (a function of image and entry alone) still
// is.
func TestCacheInvalidation(t *testing.T) {
	img := cacheImage(t)
	c := NewCache()

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

	// Different constraints: the result is not shared, the CFG is.
	a3 := cachedAnalyzer(img, arch.Config{}, c)
	a3.AddConstraints(ExecutesAtMost("e1", "entry0", 1))
	if _, err := a3.Analyze("e1"); err != nil {
		t.Fatal(err)
	}
	m3 := a3.Metrics.Stats().Counters
	if m3["wcet.entries_cached"] != 0 {
		t.Error("constraint change served a stale cached result")
	}
	if m3["passcache.hit.cfg"] != 1 {
		t.Errorf("CFG not shared across constraint sets: %v", m3)
	}

	// KeepLP also keys the result: flipping it cannot reuse a
	// Result missing its LP text.
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

// TestParallelRespectsWorkerBound: with GOMAXPROCS=2 and all workers
// blocked, no third entry is ever picked up.
func TestParallelRespectsWorkerBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a := New(cacheImage(t), arch.Config{})

	started := make(chan string, 16)
	release := make(chan struct{})
	analyzeWorkerHook = func(entry string) {
		started <- entry
		<-release
	}
	defer func() { analyzeWorkerHook = nil }()

	done := make(chan error, 1)
	go func() {
		_, err := a.AnalyzeAll(context.Background())
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := New(cacheImage(t), arch.Config{})

	ctx, cancel := context.WithCancel(context.Background())
	var picked atomic.Int32
	analyzeWorkerHook = func(string) {
		if picked.Add(1) == 1 {
			cancel()
		}
	}
	defer func() { analyzeWorkerHook = nil }()

	_, err := a.AnalyzeAll(ctx)
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
	if _, err := a.AnalyzeAll(pre); !errors.Is(err, context.Canceled) {
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
	_, err := a.AnalyzeAll(context.Background())
	if err == nil {
		t.Fatal("contradictory constraints did not fail")
	}
	for _, entry := range []string{"e2", "e5"} {
		if !strings.Contains(err.Error(), entry) {
			t.Errorf("aggregated error missing entry %s: %v", entry, err)
		}
	}
}

// stageNames lists the recorded stage names in completion order.
func stageNames(m *obs.Metrics) []string {
	var out []string
	for _, s := range m.Stats().Stages {
		out = append(out, s.Name)
	}
	return out
}

// TestCacheHitSkipsRun: a cached re-analysis runs no stage at all.
func TestCacheHitSkipsRun(t *testing.T) {
	cached := cachedAnalyzer(cacheImage(t), arch.Config{}, NewCache())
	for i := 0; i < 3; i++ {
		if _, err := cached.Analyze("e1"); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(stageNames(cached.Metrics)); n != 5 {
		t.Errorf("cached analyzer recorded %d stages over 3 runs, want 5 (one cold run)", n)
	}
	st := cached.Cache.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 hits / 2 misses", st)
	}
}

// TestUncachedAnalyzerAlwaysRuns: an analyzer without a cache runs
// every stage on every call.
func TestUncachedAnalyzerAlwaysRuns(t *testing.T) {
	uncached := New(cacheImage(t), arch.Config{})
	uncached.Metrics = obs.NewMetrics()
	for i := 0; i < 3; i++ {
		if _, err := uncached.Analyze("e1"); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(stageNames(uncached.Metrics)); n != 15 {
		t.Errorf("uncached analyzer recorded %d stages over 3 runs, want 15", n)
	}
}

// TestCacheInvalidatedByFingerprint: an image whose content differs
// under the same entry name shares neither tier with the first, while
// an identically built image hits both.
func TestCacheInvalidatedByFingerprint(t *testing.T) {
	c := NewCache()
	short := cachedAnalyzer(straightImage(t, 3), arch.Config{}, c)
	r1, err := short.Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}

	long := cachedAnalyzer(straightImage(t, 9), arch.Config{}, c)
	r2, err := long.Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	m := long.Metrics.Stats().Counters
	if m["passcache.hits"] != 0 || m["wcet.entries_analyzed"] != 1 {
		t.Errorf("changed image hit the cache: %v", m)
	}
	if r2.Cycles <= r1.Cycles {
		t.Errorf("9-instruction bound %d not above 3-instruction bound %d — stale reuse", r2.Cycles, r1.Cycles)
	}
	if st := c.Stats(); st.Entries != 4 {
		t.Errorf("cache holds %d entries, want 4 (a graph and a result per image)", st.Entries)
	}

	same := cachedAnalyzer(straightImage(t, 9), arch.Config{}, c)
	r3, err := same.Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	if same.Metrics.Stats().Counters["passcache.hit.result"] != 1 || r3.Cycles != r2.Cycles {
		t.Errorf("identically built image missed the cache or got bound %d, want %d", r3.Cycles, r2.Cycles)
	}
}

// TestStagesRunInOrder: one analysis completes its stages in pipeline
// order; the ILP solve completes inside the IPET stage.
func TestStagesRunInOrder(t *testing.T) {
	a := New(cacheImage(t), arch.Config{})
	a.Metrics = obs.NewMetrics()
	if _, err := a.Analyze("e1"); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(stageNames(a.Metrics), " ")
	if want := "wcet.cfg wcet.classify wcet.ilp_solve wcet.ipet wcet.reconstruct"; got != want {
		t.Errorf("stage order = %q, want %q", got, want)
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)th call on, so a test can cancel an analysis between two
// given stages.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestCancellationStopsBetweenStages: a context cancelled after the CFG
// stage stops the analysis before classification runs.
func TestCancellationStopsBetweenStages(t *testing.T) {
	a := New(cacheImage(t), arch.Config{})
	a.Metrics = obs.NewMetrics()
	_, err := a.AnalyzeContext(&cancelAfter{Context: context.Background(), n: 1}, "e1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := strings.Join(stageNames(a.Metrics), " "); got != "wcet.cfg" {
		t.Errorf("stages run = %q, want the CFG stage only", got)
	}
}

// TestStageErrorAborts: a failing ILP stops the analysis before path
// reconstruction and caches nothing but the CFG.
func TestStageErrorAborts(t *testing.T) {
	c := NewCache()
	a := cachedAnalyzer(cacheImage(t), arch.Config{}, c)
	a.AddConstraints(ExecutesAtMost("e1", "entry0", 0))
	if _, err := a.Analyze("e1"); err == nil {
		t.Fatal("contradictory constraints did not fail")
	}
	for _, s := range stageNames(a.Metrics) {
		if s == "wcet.reconstruct" {
			t.Error("path reconstruction ran after the ILP failed")
		}
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("failed analysis left %d cache entries, want 1 (the CFG)", st.Entries)
	}
}

// TestCacheKeysSeparateComponents: every input of an analysis reaches
// the result key, and only the image and entry reach the graph key.
func TestCacheKeysSeparateComponents(t *testing.T) {
	img, other := cacheImage(t), straightImage(t, 3)
	base := New(img, arch.Config{})
	variants := map[string]*Analyzer{
		"base":        base,
		"image":       New(other, arch.Config{}),
		"hardware":    New(img, arch.Config{L2Enabled: true}),
		"backend":     New(img, arch.Config{Arch: arch.CVA6RTID}),
		"constraints": New(img, arch.Config{}),
		"keepLP":      New(img, arch.Config{}),
	}
	variants["constraints"].AddConstraints(ExecutesAtMost("e1", "entry0", 1))
	variants["keepLP"].KeepLP = true
	seen := map[string]string{}
	for name, a := range variants {
		k := a.resultKey("e1")
		if prev, dup := seen[k]; dup {
			t.Errorf("result keys of %s and %s collide: %s", prev, name, k)
		}
		seen[k] = name
	}
	if base.resultKey("e1") == base.resultKey("e2") {
		t.Error("result key ignores the entry")
	}
	if base.resultKey("e1") != New(cacheImage(t), arch.Config{}).resultKey("e1") {
		t.Error("result key differs across identically built images")
	}
	for _, name := range []string{"hardware", "constraints", "keepLP"} {
		if variants[name].graphKey("e1") != base.graphKey("e1") {
			t.Errorf("graph key depends on %s", name)
		}
	}
	if variants["image"].graphKey("e1") == base.graphKey("e1") {
		t.Error("graph key ignores the image")
	}
}

// TestCacheConcurrentAccess: analyses racing on one cache all get the
// uncached bound, every lookup is counted, and the cache ends with one
// graph and one Result per entry.
func TestCacheConcurrentAccess(t *testing.T) {
	img := cacheImage(t)
	want := map[string]uint64{}
	for _, e := range img.Entries {
		r, err := New(img, arch.Config{}).Analyze(e)
		if err != nil {
			t.Fatal(err)
		}
		want[e] = r.Cycles
	}
	c := NewCache()
	m := obs.NewMetrics()
	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := New(img, arch.Config{})
			a.Cache, a.Metrics = c, m
			for i := 0; i < rounds; i++ {
				e := img.Entries[(g+i)%len(img.Entries)]
				r, err := a.Analyze(e)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Cycles != want[e] {
					t.Errorf("%s: cached bound %d, uncached %d", e, r.Cycles, want[e])
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 2*len(img.Entries) {
		t.Errorf("cache holds %d entries, want %d", st.Entries, 2*len(img.Entries))
	}
	// Every analysis looks up its Result; every Result miss also
	// looks up the CFG.
	analyses := uint64(goroutines * rounds)
	resultMisses := analyses - m.Stats().Counters["passcache.hit.result"]
	if st.Hits+st.Misses != analyses+resultMisses {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, analyses+resultMisses)
	}
}

// TestCacheReset: Reset drops every entry and zeroes the counters.
func TestCacheReset(t *testing.T) {
	c := NewCache()
	a := cachedAnalyzer(cacheImage(t), arch.Config{}, c)
	for i := 0; i < 2; i++ {
		if _, err := a.Analyze("e1"); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("stats before Reset = %+v, want hits, misses and entries", st)
	}
	c.Reset()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("stats after Reset = %+v, want zero", st)
	}
	if _, err := a.Analyze("e1"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("analysis after Reset = %+v, want 2 cold misses", st)
	}
}

// holdCtx holds the analysis that owns it inside its computation: the
// second Err call, made after the CFG stage, closes entered and blocks
// until release is closed, then reports err.
type holdCtx struct {
	context.Context
	calls            int
	entered, release chan struct{}
	err              error
}

func (h *holdCtx) Err() error {
	if h.calls++; h.calls == 2 {
		close(h.entered)
		<-h.release
		return h.err
	}
	return nil
}

// waitCtx reports on reached each time a lookup selects on its Done
// channel, which a lookup does only when it finds its key in the cache.
type waitCtx struct {
	context.Context
	reached chan<- struct{}
}

func (w waitCtx) Done() <-chan struct{} {
	w.reached <- struct{}{}
	return w.Context.Done()
}

// boundRace runs one Bound of entry e1 under hw held inside its
// computation by owner, starts n-1 more Bounds of the same key once it
// is in flight, and releases the owner only when all of them wait for
// it. It returns the n bounds, the owner's first.
func boundRace(t *testing.T, img *kimage.Image, hw arch.Config, c *Cache, m *obs.Metrics, owner *holdCtx, n int) ([]uint64, []error) {
	t.Helper()
	got, errs := make([]uint64, n), make([]error, n)
	reached := make(chan struct{}, 2*n) // a waiter whose owner fails waits at most twice
	finished := make(chan struct{}, n)
	var wg sync.WaitGroup
	bound := func(i int, ctx context.Context) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := New(img, hw)
			a.Cache, a.Metrics = c, m
			got[i], errs[i] = a.Bound(ctx, "e1")
			finished <- struct{}{}
		}()
	}
	bound(0, owner)
	<-owner.entered
	for i := 1; i < n; i++ {
		bound(i, waitCtx{context.Background(), reached})
	}
	for i := 1; i < n; i++ {
		select {
		case <-reached:
		case <-finished:
			close(owner.release)
			wg.Wait()
			t.Fatal("a lookup of the in-flight key finished before the computation it should wait for")
		}
	}
	close(owner.release)
	wg.Wait()
	return got, errs
}

// TestCacheInFlightMissComputesOnce: lookups that find their key in
// flight wait for its one computation and count as hits, so N racing
// Bounds of a cold key count one miss and N-1 hits on it.
func TestCacheInFlightMissComputesOnce(t *testing.T) {
	img := cacheImage(t)
	want, err := New(img, arch.Config{}).Bound(context.Background(), "e1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	// Warm the CFG under other hardware, so that the race below
	// looks up one cold key: the Result.
	warm := cachedAnalyzer(img, arch.Config{L2Enabled: true}, c)
	if _, err := warm.Bound(context.Background(), "e1"); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()

	const n = 8
	m := obs.NewMetrics()
	owner := &holdCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	got, errs := boundRace(t, img, arch.Config{}, c, m, owner, n)
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Errorf("Bound %d = %d, %v; want %d", i, got[i], errs[i], want)
		}
	}
	st := c.Stats()
	if misses := st.Misses - before.Misses; misses != 1 {
		t.Errorf("the race counted %d misses, want 1", misses)
	}
	counters := m.Stats().Counters
	if counters["passcache.hit.result"] != n-1 || counters["wcet.entries_analyzed"] != 1 {
		t.Errorf("counters %v, want passcache.hit.result=%d and wcet.entries_analyzed=1", counters, n-1)
	}
	// The owner's CFG lookup is the race's one other hit.
	if hits := st.Hits - before.Hits; hits != n {
		t.Errorf("the race counted %d hits, want %d (%d waits and the owner's CFG)", hits, n, n-1)
	}
	if st.Entries != before.Entries+1 {
		t.Errorf("cache holds %d entries, want %d", st.Entries, before.Entries+1)
	}
}

// TestCacheFailedComputationRetried: a computation that fails (here its
// owner is cancelled) leaves the cache, and the lookups waiting for it
// compute the key once more among themselves instead of failing.
func TestCacheFailedComputationRetried(t *testing.T) {
	img := cacheImage(t)
	want, err := New(img, arch.Config{}).Bound(context.Background(), "e1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	const n = 6
	m := obs.NewMetrics()
	owner := &holdCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{}), err: context.Canceled}
	got, errs := boundRace(t, img, arch.Config{}, c, m, owner, n)
	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("cancelled owner returned %d, %v; want context.Canceled", got[0], errs[0])
	}
	for i := 1; i < n; i++ {
		if errs[i] != nil || got[i] != want {
			t.Errorf("waiter %d got %d, %v; want %d", i, got[i], errs[i], want)
		}
	}
	counters := m.Stats().Counters
	if counters["wcet.entries_analyzed"] != 1 || counters["passcache.hit.result"] != n-2 {
		t.Errorf("counters %v, want one analysis and %d result hits", counters, n-2)
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("cache holds %d entries, want 2 (one graph, one result)", st.Entries)
	}
}

// TestCachePreparedTier: the rows tier keys an entry's row set by the
// graph, the constraint set and KeepLP, so other hardware reuses it
// without a prepared lookup. The prepared tier keys the phase-1 basis
// by the constraint rows alone, so a row set that differs only in
// KeepLP, or a graph of another entry with the same rows, shares one
// basis; a constraint that adds a row does not. Their lookups count as
// wcet.row_hits, ilp.prepares and ilp.prepare_hits, never in
// CacheStats or passcache.*. Reset empties both, and without a cache
// every analysis builds its rows and prepares afresh.
func TestCachePreparedTier(t *testing.T) {
	img := cacheImage(t)
	c := NewCache()
	m := obs.NewMetrics()
	analyze := func(hw arch.Config, entry string, edit func(a *Analyzer)) *Result {
		t.Helper()
		a := New(img, hw)
		a.Cache, a.Metrics = c, m
		if edit != nil {
			edit(a)
		}
		r, err := a.Analyze(entry)
		if err != nil {
			t.Fatal(err)
		}
		cold := New(img, hw)
		if edit != nil {
			edit(cold)
		}
		want, err := cold.Analyze(entry)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != want.Cycles || !slices.Equal(r.Counts, want.Counts) {
			t.Errorf("%s: cached %d cycles, uncached %d", entry, r.Cycles, want.Cycles)
		}
		return r
	}
	check := func(step string, rowHits, prepares, hits uint64) {
		t.Helper()
		ctr := m.Stats().Counters
		if ctr["wcet.row_hits"] != rowHits || ctr["ilp.prepares"] != prepares || ctr["ilp.prepare_hits"] != hits {
			t.Errorf("%s: wcet.row_hits %d, ilp.prepares %d, ilp.prepare_hits %d; want %d, %d and %d",
				step, ctr["wcet.row_hits"], ctr["ilp.prepares"], ctr["ilp.prepare_hits"], rowHits, prepares, hits)
		}
	}

	analyze(arch.Config{}, "e1", nil)
	check("cold", 0, 1, 0)
	analyze(arch.Config{L2Enabled: true}, "e1", nil)
	check("other hardware", 1, 1, 0)
	analyze(arch.Config{}, "e1", func(a *Analyzer) { a.KeepLP = true })
	check("KeepLP", 1, 1, 1)
	// Every entry of cacheImage has the same shape, so the same rows.
	analyze(arch.Config{}, "e2", nil)
	check("another entry's graph", 1, 1, 2)
	analyze(arch.Config{}, "e1", func(a *Analyzer) { a.AddConstraints(ExecutesAtMost("e1", "entry0", 1)) })
	check("an added constraint row", 1, 2, 2)

	// Five result misses, two graph misses (e1, e2) and three graph
	// hits; the rows and prepared lookups are not among them.
	ctr := m.Stats().Counters
	if st := c.Stats(); st.Hits != 3 || st.Misses != 7 || st.Entries != 7 ||
		ctr["passcache.hits"] != 3 || ctr["passcache.misses"] != 7 {
		t.Errorf("CacheStats %+v, passcache.hits %d, passcache.misses %d; want 3 hits, 7 misses, 7 entries",
			st, ctr["passcache.hits"], ctr["passcache.misses"])
	}

	c.Reset()
	analyze(arch.Config{}, "e1", nil)
	check("after Reset", 1, 3, 2)

	m = obs.NewMetrics()
	for i := 0; i < 2; i++ {
		a := New(img, arch.Config{})
		a.Metrics = m
		if _, err := a.Analyze("e1"); err != nil {
			t.Fatal(err)
		}
	}
	check("without a cache", 0, 2, 0)
}

// TestResultKeyConstraintEncoding: the result key tells apart
// constraint sets whose fields differ only in where separators fall,
// and gives equal sets equal keys.
func TestResultKeyConstraintEncoding(t *testing.T) {
	img := cacheImage(t)
	sets := [][]UserConstraint{
		nil,
		{ExecutesAtMost("", "", 0)},
		{ExecutesAtMost("", "", 0), ExecutesAtMost("", "", 0)},
		{Conflict("f", "a,1:b", "c")},
		{Conflict("f", "a", "1:b,c")},
		{Conflict("f,1:a", "b", "c")},
		{Conflict("f", "a", "b"), Conflict("f", "c", "d")},
		{Conflict("f", "a", "b|1|0,1:f,1:c,1:d,0")},
		{Consist("f", "a", "b")},
		{Consist("f", "b", "a")},
		{ExecutesAtMost("f", "a", 12)},
		{ExecutesAtMost("f", "a", 1), ExecutesAtMost("f", "a", 2)},
		{ExecutesAtMost("f", "a", 12), ExecutesAtMost("f", "a", 0)},
	}
	keys := map[string]int{}
	for i, cs := range sets {
		a := New(img, arch.Config{})
		a.AddConstraints(cs...)
		k := a.resultKey("e1")
		if j, dup := keys[k]; dup {
			t.Errorf("constraint sets %d and %d share the key %q", j, i, k)
		}
		keys[k] = i
		b := New(img, arch.Config{})
		b.AddConstraints(append([]UserConstraint(nil), cs...)...)
		if b.resultKey("e1") != k {
			t.Errorf("constraint set %d: equal sets give different keys", i)
		}
	}
}

// TestIPETVariableNames: the name the fractional-optimum error gives a
// variable is the one the LP dump gives it, e<from>_<to> of the
// caller's graph, since a shared phase-1 basis does not know it.
func TestIPETVariableNames(t *testing.T) {
	a := New(cacheImage(t), arch.Config{})
	g, err := a.buildGraph("e1")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := newRowSet(g, true)
	if err != nil {
		t.Fatal(err)
	}
	vars := 0
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if got, want := rs.varName(rs.edgeVar(n.ID, s)), fmt.Sprintf("e%d_%d", n.ID, s); got != want {
				t.Errorf("edge %d -> %d is named %s, want %s", n.ID, s, got, want)
			}
			vars++
		}
	}
	if vars != rs.first[len(g.Nodes)] || vars == 0 {
		t.Errorf("%d edges, %d variables", vars, rs.first[len(g.Nodes)])
	}
}
