package fleet

import (
	"context"
	"testing"

	"verikern/internal/obs"
	"verikern/internal/soak"
)

// TestStreamBatchReusesBuffers guards the worker's streaming path:
// once a stream has sent a batch, taking the next window's tally
// difference reuses its buffers, so a window with no new samples
// allocates nothing.
func TestStreamBatchReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	sp := fleetSpec(1_000_000, 1)
	sp.BoundCycles = 142_957
	rn, err := soak.NewRunner(sp.SoakConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := &stream{kinds: map[string]uint64{}}
	for i := 0; i < 4; i++ {
		if err := rn.Step(512); err != nil {
			t.Fatal(err)
		}
		if _, err := st.batch(rn); err != nil {
			t.Fatal(err)
		}
	}
	var tally soak.Tally
	rn.Tally(&tally)
	sources := 0
	for op := range tally.Sources {
		if tally.Sources[op].Count() > 0 {
			sources++
		}
	}
	if sources < 2 {
		t.Fatalf("only %d latency sources after warm-up; the test needs several", sources)
	}
	got := testing.AllocsPerRun(100, func() {
		b, err := st.batch(rn)
		if err != nil {
			t.Fatal(err)
		}
		if b.FromOps != b.ToOps || len(b.Sources) != 0 {
			t.Fatalf("empty window streamed ops %d..%d and %d sources", b.FromOps, b.ToOps, len(b.Sources))
		}
	})
	if got != 0 {
		t.Errorf("an empty window allocates %v times, want 0", got)
	}
}

// TestMergeReusesScratch guards the coordinator's merge: after the
// first batch, decoding a batch with per-source deltas and event
// counts into the scratch tally and adding it allocates nothing.
func TestMergeReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	sp := fleetSpec(1_000_000, 1)
	sp.BoundCycles = 142_957
	c, err := New(context.Background(), Config{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.mu.Lock()
	c.shards[0].owner = 1
	c.mu.Unlock()

	var a, b obs.Histogram
	for _, v := range []uint64{900, 1500, 40_000} {
		a.Record(v)
	}
	b.Record(7)
	batch := Batch{
		Shard:       0,
		Sources:     []SourceDelta{{Op: 1, Hist: a.State()}, {Op: 2, Hist: b.State()}},
		EventCounts: map[string]uint64{"irq-service": 4},
	}
	next := func() {
		batch.FromOps = batch.ToOps
		batch.ToOps++
		c.merge(1, batch)
	}
	next()
	got := testing.AllocsPerRun(100, next)
	if got != 0 {
		t.Errorf("merging a batch allocates %v times, want 0", got)
	}
	st := c.Status()
	if st.Dropped != 0 || st.Shards[0].Checkpoint != batch.ToOps {
		t.Fatalf("merges dropped %d batches, checkpoint %d, want 0 and %d", st.Dropped, st.Shards[0].Checkpoint, batch.ToOps)
	}
	if n := c.agg.Sources[1].Count(); n != 3*(batch.ToOps) {
		t.Errorf("source 1 merged %d samples, want %d", n, 3*batch.ToOps)
	}
	if n := c.agg.Kinds[obs.KindIRQService]; n != 4*batch.ToOps {
		t.Errorf("merged %d irq-service events, want %d", n, 4*batch.ToOps)
	}
}
