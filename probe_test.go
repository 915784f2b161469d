package verikern

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"verikern/internal/konfig"
	"verikern/internal/soak"
)

// TestTightnessMatrix is the probe's acceptance gate, end to end over
// the full preemption × pinning matrix:
//
//  1. Soundness — no observed sample may exceed its computed bound,
//     at any layer (machine-entry replays and the live kernel's
//     sentinel both count).
//  2. Directed beats random — for at least one unpinned entry the
//     probe's observed maximum exceeds what the passive soak reaches
//     with the same seed and evaluation budget.
//  3. Determinism — the BENCH_tightness.json artifact is byte-stable
//     for a fixed seed and budget.
func TestTightnessMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the WCET pipeline four times")
	}
	const seed, budget = 42, 40
	ctx := context.Background()
	reps, err := TightnessReportArch(ctx, seed, budget, "")
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := konfig.LegacyProbeMatrix("")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(matrix) {
		t.Fatalf("got %d reports, want %d", len(reps), len(matrix))
	}

	// 1. Soundness, every config, every entry.
	for _, r := range reps {
		if r.Violations != 0 {
			t.Errorf("%s: %d bound violations", r.Label, r.Violations)
		}
		if len(r.Entries) != 5 {
			t.Errorf("%s: %d entries, want 5", r.Label, len(r.Entries))
		}
		for _, e := range r.Entries {
			if e.ObservedMax > e.BoundCycles {
				t.Errorf("%s %s: observed %d exceeds computed bound %d",
					r.Label, e.Name, e.ObservedMax, e.BoundCycles)
			}
			if e.ObservedMax == 0 {
				t.Errorf("%s %s: probe observed nothing", r.Label, e.Name)
			}
		}
	}

	// 2. Directed beats random on an unpinned config: the passive
	// soak with the same seed and op budget must observe less than
	// the probe's kernel-layer maximum.
	var probeMax uint64
	for _, r := range reps {
		if r.Label != "benno+preempt" {
			continue
		}
		for _, e := range r.Entries {
			if e.Name == "irq-response" {
				probeMax = e.ObservedMax
			}
		}
	}
	if probeMax == 0 {
		t.Fatal("no irq-response entry for benno+preempt")
	}
	np, err := konfig.LegacyPoint("", true, false)
	if err != nil {
		t.Fatal(err)
	}
	passiveCfg, err := np.Campaign(seed, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	passive, err := soak.Run(ctx, passiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	if probeMax <= passive.Snapshot.IRQ.Max {
		t.Errorf("directed search (%d cycles) did not beat the passive soak (%d cycles) at the same budget",
			probeMax, passive.Snapshot.IRQ.Max)
	}

	// 3. The artifact is deterministic and round-trips.
	var a, b bytes.Buffer
	if err := WriteBench(&a, &TightnessBench{Seed: seed, Budget: budget, Configs: reps}); err != nil {
		t.Fatal(err)
	}
	reps2, err := TightnessReportArch(ctx, seed, budget, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBench(&b, &TightnessBench{Seed: seed, Budget: budget, Configs: reps2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("BENCH_tightness.json is not byte-stable across identical runs")
	}
	var doc TightnessBench
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if doc.Seed != seed || doc.Budget != budget || len(doc.Configs) != len(reps) {
		t.Errorf("artifact round-trip mismatch: %+v", doc)
	}

	// The human table names every config and entry.
	table := FormatTightnessReport(reps)
	for _, want := range []string{"benno+preempt+pinned", "benno+nopreempt", "irq-response", "handleSyscall", "tightness"} {
		if !strings.Contains(table, want) {
			t.Errorf("tightness table missing %q", want)
		}
	}
}

// TestTightnessPinnedTighter: the composed bound must order the way
// the paper's Table 1 does — pinning lowers the bound; the preemptible
// kernel's bound sits far under the non-preemptible one.
func TestTightnessPinnedTighter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the WCET pipeline four times")
	}
	reps, err := TightnessReportArch(context.Background(), 7, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	bound := map[string]uint64{}
	for _, r := range reps {
		for _, e := range r.Entries {
			if e.Name == "irq-response" {
				bound[r.Label] = e.BoundCycles
			}
		}
	}
	if !(bound["benno+preempt+pinned"] < bound["benno+preempt"]) {
		t.Errorf("pinning did not lower the preemptible bound: %v", bound)
	}
	if !(bound["benno+nopreempt+pinned"] < bound["benno+nopreempt"]) {
		t.Errorf("pinning did not lower the non-preemptible bound: %v", bound)
	}
	if !(bound["benno+preempt"]*5 < bound["benno+nopreempt"]) {
		t.Errorf("preemption points did not dominate the bound: %v", bound)
	}
}
