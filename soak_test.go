package verikern

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestSoakReportMatrix drives the full latency-observatory sweep at a
// small op budget and checks the acceptance property end to end: every
// configuration stays within its own computed WCET bound, and the
// artifact serialisation round-trips.
func TestSoakReportMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the WCET pipeline four times")
	}
	const seed, ops = 42, 600
	reps, err := SoakReportArch(context.Background(), seed, ops, "")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := SoakConfigs()
	if len(reps) != len(cfgs) {
		t.Fatalf("got %d reports for %d configs", len(reps), len(cfgs))
	}
	for i, r := range reps {
		if r.Snapshot.Label != cfgs[i].Name {
			t.Errorf("report %d label %q, want %q", i, r.Snapshot.Label, cfgs[i].Name)
		}
		if r.Snapshot.Ops != ops {
			t.Errorf("%s: ran %d ops, want %d", r.Snapshot.Label, r.Snapshot.Ops, ops)
		}
		if r.Snapshot.Bound.Cycles == 0 {
			t.Errorf("%s: no WCET bound resolved", r.Snapshot.Label)
		}
		if r.Snapshot.Bound.Violations != 0 {
			t.Errorf("%s: %d violations of bound %d (max %d)",
				r.Snapshot.Label, r.Snapshot.Bound.Violations, r.Snapshot.Bound.Cycles, r.Snapshot.IRQ.Max)
		}
	}
	// The pinned bound is the tightest; the lazy kernel's the loosest.
	if reps[0].Snapshot.Bound.Cycles >= reps[1].Snapshot.Bound.Cycles {
		t.Errorf("pinned bound %d not tighter than unpinned %d",
			reps[0].Snapshot.Bound.Cycles, reps[1].Snapshot.Bound.Cycles)
	}
	if reps[3].Snapshot.Bound.Cycles <= reps[1].Snapshot.Bound.Cycles {
		t.Errorf("lazy bound %d not looser than modern %d",
			reps[3].Snapshot.Bound.Cycles, reps[1].Snapshot.Bound.Cycles)
	}

	var buf bytes.Buffer
	if err := WriteBench(&buf, NewSoakBench(seed, ops, reps)); err != nil {
		t.Fatal(err)
	}
	var doc SoakBench
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH_soak.json does not round-trip: %v", err)
	}
	if doc.Seed != seed || doc.Ops != ops || len(doc.Configs) != len(cfgs) {
		t.Errorf("document header {seed %d, ops %d, %d configs}", doc.Seed, doc.Ops, len(doc.Configs))
	}

	for i, r := range reps {
		if !strings.HasPrefix(r.String(), cfgs[i].Name+":") {
			t.Errorf("formatted report %d does not name configuration %q", i, cfgs[i].Name)
		}
	}
}
