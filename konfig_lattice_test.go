package verikern

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"verikern/internal/fleet"
	"verikern/internal/kernel"
	"verikern/internal/konfig"
	"verikern/internal/soak"
)

// TestLatticeMatchesLegacyMatrix is the konfig equivalence proof: the
// four legacy evaluation configurations, re-expressed as lattice
// points, must reproduce the pre-konfig behaviour byte-identically —
// the WCET bounds pinned by the seed golden on the ARM1136, and the
// soak equivalence digests of the legacy-struct path on both backends.
func TestLatticeMatchesLegacyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full lattice-vs-legacy matrix: skipped in -short")
	}
	ctx := context.Background()

	t.Run("golden-bounds-arm1136", func(t *testing.T) {
		data, err := os.ReadFile(arm1136BaselinePath)
		if err != nil {
			t.Fatalf("reading seed golden: %v", err)
		}
		var golden baselineDoc
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
		// The coherent lattice expressions of the golden's matrix rows:
		// the Figure 9 hardware axis plus the pinned and original rows.
		cases := []struct {
			prefix string
			set    map[string]string
		}{
			{"original/pin=false/base", map[string]string{
				"sched.policy": "lazy", "vspace.design": "asid",
				"preempt.delete": "false", "preempt.clear": "false",
			}},
			{"modern/pin=false/base", nil},
			{"modern/pin=true/pin1", map[string]string{"cache.l1.pinned-ways": "1"}},
			{"modern/pin=false/l2", map[string]string{"cache.l2.enabled": "true"}},
			{"modern/pin=false/l2+bpred", map[string]string{
				"cache.l2.enabled": "true", "predictor.dynamic": "true",
			}},
		}
		for _, tc := range cases {
			p, err := DefaultLatticePoint("arm1136")
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.set {
				if p, err = p.Set(k, v); err != nil {
					t.Fatal(err)
				}
			}
			im, hw, err := BuildImagePoint(p)
			if err != nil {
				t.Fatalf("%s: %v", tc.prefix, err)
			}
			bounds, err := im.AnalyzeAll(ctx, hw)
			if err != nil {
				t.Fatalf("%s: %v", tc.prefix, err)
			}
			for _, b := range bounds {
				key := fmt.Sprintf("%s/%s", tc.prefix, b.Entry)
				want, ok := golden.Bounds[key]
				if !ok {
					t.Errorf("golden has no entry %q", key)
					continue
				}
				if b.Cycles != want {
					t.Errorf("lattice point %s: bound[%s] = %d, golden %d", p.Hash(), key, b.Cycles, want)
				}
			}
		}
	})

	t.Run("golden-soak-arm1136", func(t *testing.T) {
		data, err := os.ReadFile(arm1136BaselinePath)
		if err != nil {
			t.Fatal(err)
		}
		var golden baselineDoc
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
		matrix, err := konfig.LegacySoakMatrix("arm1136")
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range matrix {
			rep, err := soak.Run(ctx, soak.Config{
				Label:     np.Name,
				Arch:      np.Point.Arch,
				ConfigKey: np.Point.Hash(),
				Seed:      1,
				Ops:       400,
				Workers:   2,
				Kernel:    np.Point.KernelConfig(),
				Pinned:    np.Point.Pinned(),
			})
			if err != nil {
				t.Fatalf("soak %s: %v", np.Name, err)
			}
			got := map[string]uint64{
				np.Name + "/ops":        rep.Ops,
				np.Name + "/simcycles":  rep.SimCycles,
				np.Name + "/maxlatency": rep.MaxLatency,
				np.Name + "/irq_count":  rep.Snapshot.IRQ.Count,
				np.Name + "/irq_min":    rep.Snapshot.IRQ.Min,
				np.Name + "/irq_max":    rep.Snapshot.IRQ.Max,
				np.Name + "/irq_p99":    rep.Snapshot.IRQ.P99,
				np.Name + "/bound":      rep.Bound.Cycles,
				np.Name + "/violations": rep.Bound.Violations,
			}
			for k, g := range got {
				if w, ok := golden.Soak[k]; !ok {
					t.Errorf("golden has no soak field %q", k)
				} else if g != w {
					t.Errorf("lattice point %s: soak[%s] = %d, golden %d", np.Point.Hash(), k, g, w)
				}
			}
		}
	})

	// Both backends: the lattice path (konfig-derived config, identity
	// stamped) digests byte-identical to the legacy-struct path.
	for _, archID := range []string{"arm1136", "cva6rt"} {
		t.Run("digest-"+archID, func(t *testing.T) {
			// The pre-konfig matrix, constructed exactly as the seed
			// tree's SoakConfigs did — by hand from kernel.Modern and
			// kernel.Original.
			type legacyRow struct {
				name   string
				kcfg   KernelConfig
				pinned bool
			}
			modern := kernel.Modern()
			modern.CheckInvariants = false
			noPre := modern
			noPre.PreemptionPoints = false
			lazy := kernel.Original()
			lazy.CheckInvariants = false
			legacy := []legacyRow{
				{"benno+preempt+pinned", modern, true},
				{"benno+preempt", modern, false},
				{"benno+nopreempt", noPre, false},
				{"lazy", lazy, false},
			}
			matrix, err := konfig.LegacySoakMatrix(archID)
			if err != nil {
				t.Fatal(err)
			}
			if len(matrix) != len(legacy) {
				t.Fatalf("matrix size %d != legacy %d", len(matrix), len(legacy))
			}
			for i, np := range matrix {
				lg := legacy[i]
				if np.Name != lg.name {
					t.Fatalf("matrix order: %s != %s", np.Name, lg.name)
				}
				run := func(kcfg KernelConfig, pinned bool, key string) []byte {
					rep, err := soak.Run(ctx, soak.Config{
						Label: np.Name, Arch: archID, ConfigKey: key,
						Seed: 11, Ops: 300, Workers: 2,
						Kernel: kcfg, Pinned: pinned,
					})
					if err != nil {
						t.Fatalf("soak %s on %s: %v", np.Name, archID, err)
					}
					d, err := fleet.EquivalenceDigest(rep.Snapshot)
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				legacyDigest := run(lg.kcfg, lg.pinned, "")
				latticeDigest := run(np.Point.KernelConfig(), np.Point.Pinned(), np.Point.Hash())
				if !bytes.Equal(legacyDigest, latticeDigest) {
					t.Errorf("%s on %s: lattice point %s digests differently from the legacy struct:\n--- legacy ---\n%s\n--- lattice ---\n%s",
						np.Name, archID, np.Point.Hash(), legacyDigest, latticeDigest)
				}
			}
		})
	}
}

// TestParetoSweepAcceptance runs the full two-backend DefaultSpace
// sweep the BENCH_pareto.json artifact ships: at least 50 feasible
// lattice points overall, both backends present, every row carrying a
// konfig hash, zero bound violations, and byte-stable output across
// repeated runs.
func TestParetoSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full lattice sweep: skipped in -short")
	}
	ctx := context.Background()
	render := func() ([]byte, *ParetoBench) {
		doc, err := ParetoSweep(ctx, nil, 3, 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteParetoBench(&buf, doc); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), doc
	}
	first, doc := render()
	archs := map[string]bool{}
	total := 0
	for _, sw := range doc.Archs {
		archs[sw.Arch] = true
		total += len(sw.Points)
		for _, p := range sw.Points {
			if len(p.Konfig) != 16 {
				t.Errorf("%s: row konfig hash %q, want 16 hex digits", sw.Arch, p.Konfig)
			}
			if p.Violations != 0 {
				t.Errorf("%s: point %s has %d bound violations", sw.Arch, p.Konfig, p.Violations)
			}
		}
		if len(sw.Frontiers) == 0 {
			t.Errorf("%s: no frontiers", sw.Arch)
		}
	}
	if total < 50 {
		t.Errorf("swept %d feasible points, acceptance floor is 50", total)
	}
	if !archs["arm1136"] || !archs["cva6rt"] {
		t.Errorf("backends swept: %v, want both arm1136 and cva6rt", archs)
	}
	again, _ := render()
	if !bytes.Equal(first, again) {
		t.Error("repeated ParetoSweep is not byte-stable")
	}
}
