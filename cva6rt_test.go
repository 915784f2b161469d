package verikern

import (
	"context"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/probe"
	"verikern/internal/soak"
)

// TestCVA6RTEndToEnd is the acceptance gate for the second backend:
// soak and probe campaigns on cva6rt, across the preemption × pinning
// matrix, must complete with every observed maximum within its
// computed bound — the same soundness contract the ARM1136 pipeline
// honours, on a core with different timing, caches and a nonzero
// architectural interrupt-entry cost.
func TestCVA6RTEndToEnd(t *testing.T) {
	ctx := context.Background()
	for _, pp := range []bool{false, true} {
		for _, pin := range []bool{false, true} {
			p, err := DefaultLatticePoint(arch.CVA6RTID)
			if err != nil {
				t.Fatal(err)
			}
			p.PreemptDelete, p.PreemptClear = pp, pp
			if pin {
				p.PinnedL1Ways = 1
			}
			np := konfig.NamedPoint{Name: "cva6rt-e2e", Point: p}

			cfg, err := np.Campaign(7, 400, 0)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := soak.Run(ctx, cfg)
			if err != nil {
				t.Fatalf("soak pp=%v pin=%v: %v", pp, pin, err)
			}
			if rep.Snapshot.Bound.Cycles == 0 {
				t.Fatalf("soak pp=%v pin=%v: no bound resolved", pp, pin)
			}
			if rep.Snapshot.Bound.Violations != 0 {
				t.Errorf("soak pp=%v pin=%v: %d samples over the %d-cycle bound (max %d)",
					pp, pin, rep.Snapshot.Bound.Violations, rep.Snapshot.Bound.Cycles, rep.Snapshot.IRQ.Max)
			}
			if rep.Snapshot.Arch != arch.CVA6RTID {
				t.Errorf("soak pp=%v pin=%v: report arch %q", pp, pin, rep.Snapshot.Arch)
			}

			prep, err := probe.Run(ctx, probe.Config{
				Label:  np.Name,
				Point:  p,
				Seed:   7,
				Budget: 24,
			})
			if err != nil {
				t.Fatalf("probe pp=%v pin=%v: %v", pp, pin, err)
			}
			if prep.Violations != 0 {
				t.Errorf("probe pp=%v pin=%v: %d observations exceeded their bound", pp, pin, prep.Violations)
			}
			if prep.Arch != arch.CVA6RTID {
				t.Errorf("probe pp=%v pin=%v: report arch %q", pp, pin, prep.Arch)
			}
			for _, e := range prep.Entries {
				if e.BoundCycles == 0 {
					t.Errorf("probe pp=%v pin=%v %s: zero bound", pp, pin, e.Name)
				}
				if e.ObservedMax > e.BoundCycles {
					t.Errorf("probe pp=%v pin=%v %s: observed %d > bound %d",
						pp, pin, e.Name, e.ObservedMax, e.BoundCycles)
				}
			}
		}
	}
}

// TestCVA6RTBoundIncludesEntryCost: the composed interrupt-response
// bound on cva6rt must carry the backend's architectural entry cost on
// top of the analysed syscall + interrupt paths — the constant the
// direct-vectoring design contributes and ARM1136 (cost zero, modelled
// in the image) does not.
func TestCVA6RTBoundIncludesEntryCost(t *testing.T) {
	ctx := context.Background()
	im, hw := buildDefaultImage(t, arch.CVA6RTID)
	sys, err := im.AnalyzeContext(ctx, hw, Syscall)
	if err != nil {
		t.Fatal(err)
	}
	irq, err := im.AnalyzeContext(ctx, hw, Interrupt)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := konfig.NamedPoint{Point: im.Point}.Campaign(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := soak.ComputeBound(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry := arch.MustLookup(arch.CVA6RTID).InterruptEntryCost(hw)
	if entry == 0 {
		t.Fatal("cva6rt entry cost is zero; the composition term is untested")
	}
	if want := sys.Cycles + irq.Cycles + entry; bound != want {
		t.Fatalf("composed bound %d != syscall %d + interrupt %d + entry %d",
			bound, sys.Cycles, irq.Cycles, entry)
	}
}

// TestAnalyzeRejectsBackendMismatch: analysing an image under a
// hardware config for a different backend is a category error the
// pipeline must refuse, not silently mis-time.
func TestAnalyzeRejectsBackendMismatch(t *testing.T) {
	im, _ := buildDefaultImage(t, arch.CVA6RTID)
	if _, err := im.AnalyzeContext(context.Background(), Hardware{}, Interrupt); err == nil {
		t.Fatal("cva6rt image analysed under an arm1136 hardware config without error")
	}
}

// buildDefaultImage builds the modern, unpinned image of a backend's
// default lattice point and the hardware it is analysed under.
func buildDefaultImage(t *testing.T, archID string) (*Image, Hardware) {
	t.Helper()
	p, err := DefaultLatticePoint(archID)
	if err != nil {
		t.Fatal(err)
	}
	im, hw, err := BuildImagePoint(p)
	if err != nil {
		t.Fatal(err)
	}
	return im, hw
}
