package wcet

import (
	"context"
	"sort"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/obs"
)

// TestAnalyzeAllParallelWithMetrics shares one obs.Metrics registry
// across AnalyzeAll's worker goroutines (exactly how the pipeline wires
// it up) and checks that the aggregated counters agree with a
// sequential run over the same image. Run under -race in CI, this is
// the regression test for the registry's internal locking.
func TestAnalyzeAllParallelWithMetrics(t *testing.T) {
	seqA := New(cacheImage(t), arch.Config{})
	seqA.Metrics = obs.NewMetrics()
	seq := map[string]*Result{}
	for _, e := range seqA.Img.Entries {
		r, err := seqA.Analyze(e)
		if err != nil {
			t.Fatal(err)
		}
		seq[e] = r
	}

	parA := New(cacheImage(t), arch.Config{})
	parA.Metrics = obs.NewMetrics()
	par, err := parA.AnalyzeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range par {
		if seq[r.Entry] == nil || seq[r.Entry].Cycles != r.Cycles {
			t.Errorf("%s: parallel %d, sequential %v", r.Entry, r.Cycles, seq[r.Entry])
		}
	}

	ss, ps := seqA.Metrics.Stats(), parA.Metrics.Stats()
	if got := ps.Counters["wcet.entries_analyzed"]; got != 6 {
		t.Errorf("parallel entries_analyzed = %d, want 6", got)
	}
	// The analysis is deterministic per entry, so every work counter
	// must aggregate identically no matter how the entries interleave.
	for _, key := range []string{
		"cfg.nodes", "cfg.loops", "classify.fixpoint_sweeps",
		"ilp.vars", "ilp.constraints", "ilp.pivots", "wcet.entries_analyzed",
	} {
		if ss.Counters[key] != ps.Counters[key] {
			t.Errorf("counter %s: sequential %d, parallel %d",
				key, ss.Counters[key], ps.Counters[key])
		}
		if ps.Counters[key] == 0 {
			t.Errorf("counter %s never incremented", key)
		}
	}
	// One stage record per (entry, stage) pair regardless of ordering.
	if len(ss.Stages) != len(ps.Stages) {
		t.Errorf("stage records: sequential %d, parallel %d", len(ss.Stages), len(ps.Stages))
	}
}

// TestBenchReadsStageAndCounterNames pins the stage and counter names
// the benchmark harness (bench/main.go) reads as strings to build its
// per-layer metrics: a renamed stage or counter would otherwise
// silently zero them.
func TestBenchReadsStageAndCounterNames(t *testing.T) {
	img := cacheImage(t)
	c := NewCache()
	m := obs.NewMetrics()
	analyze := func(hw arch.Config) {
		t.Helper()
		a := New(img, hw)
		a.Cache, a.Metrics = c, m
		if _, err := a.Analyze("e1"); err != nil {
			t.Fatal(err)
		}
	}
	analyze(arch.Config{})
	// Same image under other hardware: the CFG comes from the cache.
	analyze(arch.Config{L2Enabled: true})
	before := m.Stats().Counters
	// Warm re-run: the whole Result comes from the cache.
	analyze(arch.Config{})
	st := m.Stats()

	names := map[string]bool{}
	for _, s := range st.Stages {
		names[s.Name] = true
	}
	var got []string
	for n := range names {
		got = append(got, n)
	}
	sort.Strings(got)
	want := []string{"wcet.cfg", "wcet.classify", "wcet.ilp_solve", "wcet.ipet", "wcet.reconstruct"}
	if len(got) != len(want) {
		t.Fatalf("stage names = %v, want exactly %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage names = %v, want exactly %v", got, want)
		}
	}

	for _, name := range []string{
		"passcache.hits", "passcache.misses", "passcache.hit.cfg",
		"passcache.hit.result", "wcet.entries_analyzed", "wcet.entries_cached",
	} {
		if st.Counters[name] == 0 {
			t.Errorf("counter %s never recorded (counters %v)", name, st.Counters)
		}
	}
	if st.Counters["passcache.hits"] <= before["passcache.hits"] {
		t.Errorf("warm re-run did not move passcache.hits: %d -> %d", before["passcache.hits"], st.Counters["passcache.hits"])
	}
	if st.Counters["passcache.misses"] != before["passcache.misses"] {
		t.Errorf("warm re-run moved passcache.misses: %d -> %d", before["passcache.misses"], st.Counters["passcache.misses"])
	}
}
