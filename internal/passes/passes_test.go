package passes

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"verikern/internal/obs"
)

func constPass(name string, deps []string, fp string, v int) *Pass {
	return &Pass{
		Name: name,
		Deps: deps,
		Fingerprint: func(*AnalysisContext) string {
			return fp
		},
		Run: func(*AnalysisContext) (any, error) { return v, nil },
	}
}

func TestPipelineTopologicalOrder(t *testing.T) {
	var ran []string
	mk := func(name string, deps ...string) *Pass {
		return &Pass{
			Name: name,
			Deps: deps,
			Run: func(*AnalysisContext) (any, error) {
				ran = append(ran, name)
				return name, nil
			},
		}
	}
	// Declared out of dependency order on purpose.
	pl, err := NewPipeline(mk("solve", "classify"), mk("cfg"), mk("classify", "cfg"), mk("reconstruct", "cfg", "solve"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(NewContext(context.Background(), nil, nil)); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range ran {
		pos[n] = i
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v, want 4 passes", ran)
	}
	for _, dep := range [][2]string{{"cfg", "classify"}, {"classify", "solve"}, {"solve", "reconstruct"}, {"cfg", "reconstruct"}} {
		if pos[dep[0]] > pos[dep[1]] {
			t.Errorf("pass %s ran after dependent %s (order %v)", dep[0], dep[1], ran)
		}
	}
}

func TestPipelineRejectsCycleAndUnknownDep(t *testing.T) {
	a := &Pass{Name: "a", Deps: []string{"b"}, Run: func(*AnalysisContext) (any, error) { return nil, nil }}
	b := &Pass{Name: "b", Deps: []string{"a"}, Run: func(*AnalysisContext) (any, error) { return nil, nil }}
	if _, err := NewPipeline(a, b); err == nil {
		t.Error("cycle not rejected")
	}
	c := &Pass{Name: "c", Deps: []string{"nope"}, Run: func(*AnalysisContext) (any, error) { return nil, nil }}
	if _, err := NewPipeline(c); err == nil {
		t.Error("unknown dependency not rejected")
	}
	if _, err := NewPipeline(constPass("dup", nil, "", 1), constPass("dup", nil, "", 2)); err == nil {
		t.Error("duplicate name not rejected")
	}
}

func TestCacheHitSkipsRun(t *testing.T) {
	cache := NewCache()
	runs := 0
	p := &Pass{
		Name:        "p",
		Version:     1,
		Fingerprint: func(*AnalysisContext) string { return "input-v1" },
		Run: func(*AnalysisContext) (any, error) {
			runs++
			return 42, nil
		},
	}
	pl, err := NewPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	for i := 0; i < 3; i++ {
		ac := NewContext(context.Background(), m, cache)
		if err := pl.Run(ac); err != nil {
			t.Fatal(err)
		}
		if v, ok := Artifact[int](ac, "p"); !ok || v != 42 {
			t.Fatalf("run %d: artifact = %v, %v", i, v, ok)
		}
	}
	if runs != 1 {
		t.Errorf("pass ran %d times, want 1 (cached)", runs)
	}
	st := cache.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 2 hits / 1 miss", st)
	}
	counters := m.Stats().Counters
	if counters["passcache.hits"] != 2 || counters["passcache.misses"] != 1 {
		t.Errorf("metrics counters = %v, want passcache.hits=2 misses=1", counters)
	}
	if counters["passcache.hit.p"] != 2 {
		t.Errorf("per-pass hit counter = %d, want 2", counters["passcache.hit.p"])
	}
}

func TestCacheInvalidatedByFingerprintAndVersion(t *testing.T) {
	cache := NewCache()
	runPass := func(fp string, version int) int {
		runs := 0
		p := &Pass{
			Name:        "p",
			Version:     version,
			Fingerprint: func(*AnalysisContext) string { return fp },
			Run: func(*AnalysisContext) (any, error) {
				runs++
				return fp, nil
			},
		}
		pl, err := NewPipeline(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(NewContext(context.Background(), nil, cache)); err != nil {
			t.Fatal(err)
		}
		return runs
	}
	if got := runPass("in-a", 1); got != 1 {
		t.Errorf("first run: %d executions", got)
	}
	if got := runPass("in-a", 1); got != 0 {
		t.Errorf("same inputs: %d executions, want cached", got)
	}
	if got := runPass("in-b", 1); got != 1 {
		t.Errorf("changed fingerprint: %d executions, want re-run", got)
	}
	if got := runPass("in-a", 2); got != 1 {
		t.Errorf("bumped version: %d executions, want re-run", got)
	}
}

func TestUncacheablePassAlwaysRuns(t *testing.T) {
	cache := NewCache()
	runs := 0
	p := &Pass{
		Name: "volatile",
		Run: func(*AnalysisContext) (any, error) {
			runs++
			return runs, nil
		},
	}
	pl, err := NewPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pl.Run(NewContext(context.Background(), nil, cache)); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Errorf("uncacheable pass ran %d times, want 3", runs)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("uncacheable pass touched the cache: %+v", st)
	}
}

func TestCancellationStopsBetweenPasses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := map[string]bool{}
	first := &Pass{Name: "first", Run: func(*AnalysisContext) (any, error) {
		ran["first"] = true
		cancel()
		return nil, nil
	}}
	second := &Pass{Name: "second", Deps: []string{"first"}, Run: func(*AnalysisContext) (any, error) {
		ran["second"] = true
		return nil, nil
	}}
	pl, err := NewPipeline(first, second)
	if err != nil {
		t.Fatal(err)
	}
	err = pl.Run(NewContext(ctx, nil, nil))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run error = %v, want context.Canceled", err)
	}
	if !ran["first"] || ran["second"] {
		t.Errorf("ran = %v, want first only", ran)
	}
}

func TestPassErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	bad := &Pass{Name: "bad", Run: func(*AnalysisContext) (any, error) { return nil, boom }}
	after := &Pass{Name: "after", Deps: []string{"bad"}, Run: func(*AnalysisContext) (any, error) {
		t.Error("pass after a failed dependency ran")
		return nil, nil
	}}
	pl, err := NewPipeline(bad, after)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(NewContext(context.Background(), nil, nil)); !errors.Is(err, boom) {
		t.Errorf("Run error = %v, want boom", err)
	}
}

func TestKeyIDSeparatesComponents(t *testing.T) {
	keys := map[string]bool{}
	for _, k := range []string{
		KeyID("cfg", 1, "img-a"),
		KeyID("cfg", 2, "img-a"),
		KeyID("cfg", 1, "img-b"),
		KeyID("classify", 1, "img-a"),
	} {
		if keys[k] {
			t.Fatalf("key collision: %s", k)
		}
		keys[k] = true
	}
	if KeyID("cfg", 1, "x") != KeyID("cfg", 1, "x") {
		t.Error("KeyID not deterministic")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	cache := NewCache()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%17)
				if _, ok := cache.Get(k); !ok {
					cache.Put(k, i)
				}
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	st := cache.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookups = %d, want 1600", st.Hits+st.Misses)
	}
}
