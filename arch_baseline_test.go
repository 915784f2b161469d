package verikern

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verikern/internal/probe"
)

// The ARM1136 baseline golden pins the analysis and observatory outputs
// of the default backend across the Backend refactor: WCET bounds for
// every entry point over the hardware matrix, the soak matrix's latency
// digests, and a directed-probe campaign's observed maxima. The file
// was captured on the pre-refactor tree; any divergence means the
// ARM1136 backend no longer reproduces the hard-wired model
// byte-for-byte. Regenerate (only when a deliberate model change is
// made) with:
//
//	ARM1136_BASELINE_UPDATE=1 go test -run TestARM1136Baseline .
const arm1136BaselinePath = "testdata/goldens/arm1136_baseline.json"

// baselineDoc is the golden document. All fields are exact integers or
// label strings, so the comparison is exact.
type baselineDoc struct {
	// Bounds maps "variant/pinned/hwLabel/entry" -> WCET cycles.
	Bounds map[string]uint64 `json:"bounds"`
	// Soak maps "label/field" -> value for the 4-config soak matrix
	// at seed 1, 400 ops, 2 workers.
	Soak map[string]uint64 `json:"soak"`
	// Probe maps "entry/field" -> value for one probe campaign
	// (benno+preempt+pinned, seed 7, budget 24).
	Probe map[string]uint64 `json:"probe"`
}

// baselineHardware is the hardware sweep the baseline pins: the paper's
// evaluation axes (L2, branch predictor, pinning).
func baselineHardware() []struct {
	Label string
	HW    Hardware
} {
	return []struct {
		Label string
		HW    Hardware
	}{
		{"base", Hardware{}},
		{"pin1", Hardware{PinnedL1Ways: 1}},
		{"l2", Hardware{L2Enabled: true}},
		{"l2+bpred", Hardware{L2Enabled: true, BranchPredictor: true}},
	}
}

func collectBaseline(t *testing.T) *baselineDoc {
	t.Helper()
	ctx := context.Background()
	doc := &baselineDoc{
		Bounds: map[string]uint64{},
		Soak:   map[string]uint64{},
		Probe:  map[string]uint64{},
	}

	for _, v := range []Variant{Original, Modern} {
		for _, pinned := range []bool{false, true} {
			im, err := BuildImage(v, pinned)
			if err != nil {
				t.Fatalf("BuildImage(%v,%v): %v", v, pinned, err)
			}
			for _, hc := range baselineHardware() {
				hw := hc.HW
				if pinned && hw.PinnedL1Ways == 0 && hc.Label == "pin1" {
					// pin1 row only meaningful with a pinned image;
					// keep it for both to pin behaviour anyway.
				}
				bounds, err := im.AnalyzeAll(ctx, hw)
				if err != nil {
					t.Fatalf("AnalyzeAll(%v,%v,%s): %v", v, pinned, hc.Label, err)
				}
				for _, b := range bounds {
					key := fmt.Sprintf("%v/pin=%v/%s/%s", v, pinned, hc.Label, b.Entry)
					doc.Bounds[key] = b.Cycles
				}
			}
		}
	}

	reps, err := SoakReportArch(ctx, 1, 400, "")
	if err != nil {
		t.Fatalf("SoakReportArch: %v", err)
	}
	for _, r := range reps {
		doc.Soak[r.Label+"/ops"] = r.Ops
		doc.Soak[r.Label+"/simcycles"] = r.SimCycles
		doc.Soak[r.Label+"/maxlatency"] = r.MaxLatency
		doc.Soak[r.Label+"/irq_count"] = r.Snapshot.IRQ.Count
		doc.Soak[r.Label+"/irq_min"] = r.Snapshot.IRQ.Min
		doc.Soak[r.Label+"/irq_max"] = r.Snapshot.IRQ.Max
		doc.Soak[r.Label+"/irq_p99"] = r.Snapshot.IRQ.P99
		doc.Soak[r.Label+"/bound"] = r.Bound.Cycles
		doc.Soak[r.Label+"/violations"] = r.Bound.Violations
	}

	prep, err := probe.Run(ctx, probe.Config{
		Label:  "benno+preempt+pinned",
		Seed:   7,
		Budget: 24,
		Kernel: ModernKernel(),
		Pinned: true,
	})
	if err != nil {
		t.Fatalf("probe.Run: %v", err)
	}
	for _, e := range prep.Entries {
		doc.Probe[e.Name+"/observed"] = e.ObservedMax
		doc.Probe[e.Name+"/bound"] = e.BoundCycles
	}
	doc.Probe["violations"] = prep.Violations
	return doc
}

// TestARM1136Baseline is the post-refactor differential gate: the
// ARM1136 backend must reproduce the pre-refactor hard-wired model's
// WCET results, soak digests and probe observations exactly.
func TestARM1136Baseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix baseline: skipped in -short")
	}
	got := collectBaseline(t)

	if os.Getenv("ARM1136_BASELINE_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(arm1136BaselinePath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(arm1136BaselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bounds, %d soak fields, %d probe fields)",
			arm1136BaselinePath, len(got.Bounds), len(got.Soak), len(got.Probe))
		return
	}

	data, err := os.ReadFile(arm1136BaselinePath)
	if err != nil {
		t.Fatalf("reading baseline (regenerate with ARM1136_BASELINE_UPDATE=1): %v", err)
	}
	var want baselineDoc
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	diff := func(section string, want, got map[string]uint64) {
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Errorf("%s[%q]: missing from current output", section, k)
			} else if g != w {
				t.Errorf("%s[%q] = %d, baseline %d", section, k, g, w)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s[%q]: not in baseline", section, k)
			}
		}
	}
	diff("bounds", want.Bounds, got.Bounds)
	diff("soak", want.Soak, got.Soak)
	diff("probe", want.Probe, got.Probe)
}
