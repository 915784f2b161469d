package verikern

import (
	"context"
	"regexp"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/soak"
	"verikern/internal/vspace"
)

// latticeIndex maps the hash of every feasible point of a backend's
// standard sweep space, widened across the address-space designs (the
// original kernel's ASID design lies outside DefaultSpace), to the point.
func latticeIndex(t *testing.T, archID string) map[string]konfig.Point {
	t.Helper()
	sp, err := konfig.DefaultSpace(archID)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range vspace.Designs() {
		sp.Vary["vspace.design"] = append(sp.Vary["vspace.design"], d.String())
	}
	points, err := konfig.Enumerate(sp)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[string]konfig.Point, len(points))
	for _, p := range points {
		idx[p.Hash()] = p
	}
	return idx
}

var configKeyRE = regexp.MustCompile(`^[0-9a-f]{16}$`)

// checkStamped fails unless cfg's ConfigKey is the hash of a feasible
// lattice point whose kernel, pinning and backend are cfg's own.
func checkStamped(t *testing.T, idx map[string]konfig.Point, cfg soak.Config) {
	t.Helper()
	if !configKeyRE.MatchString(cfg.ConfigKey) {
		t.Errorf("%s/%s: config key %q is not 16 hex digits", cfg.Arch, cfg.Label, cfg.ConfigKey)
		return
	}
	p, ok := idx[cfg.ConfigKey]
	if !ok {
		t.Errorf("%s/%s: config key %s names no lattice point", cfg.Arch, cfg.Label, cfg.ConfigKey)
		return
	}
	if err := p.Check(); err != nil {
		t.Errorf("%s/%s: stamped point infeasible: %v", cfg.Arch, cfg.Label, err)
	}
	if p.KernelConfig() != cfg.Kernel {
		t.Errorf("%s/%s: kernel %+v, stamped point runs %+v", cfg.Arch, cfg.Label, cfg.Kernel, p.KernelConfig())
	}
	if p.Pinned() != cfg.Pinned {
		t.Errorf("%s/%s: pinned %v, stamped point pinned %v", cfg.Arch, cfg.Label, cfg.Pinned, p.Pinned())
	}
	if p.Arch != cfg.Arch {
		t.Errorf("%s/%s: arch %q, stamped point on %q", cfg.Arch, cfg.Label, cfg.Arch, p.Arch)
	}
}

// TestShippedConfigsStamped checks every campaign the package ships —
// the soak matrix SoakReportArch runs, the benno+preempt campaign
// FleetReport shards, the per-point soaks of the Pareto sweep, and the
// kernel-layer runner of every probe-matrix report —
// carries the identity of the lattice point it runs, on both backends.
// The CLI's campaigns are checked by cmd/kzm-sim's test of the same
// name.
func TestShippedConfigsStamped(t *testing.T) {
	ctx := context.Background()
	for _, id := range []string{arch.ARM1136ID, arch.CVA6RTID} {
		idx := latticeIndex(t, id)
		matrix, err := soakMatrixCampaigns(id, 42, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if len(matrix) != 4 {
			t.Errorf("%s: soak matrix has %d campaigns, want 4", id, len(matrix))
		}
		for _, cfg := range matrix {
			checkStamped(t, idx, cfg)
		}
		fleetCfg, err := fleetCampaign(id, 42, 4000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if fleetCfg.Label != "benno+preempt" || fleetCfg.Pinned {
			t.Errorf("%s: fleet campaign is %q pinned=%v, want unpinned benno+preempt", id, fleetCfg.Label, fleetCfg.Pinned)
		}
		checkStamped(t, idx, fleetCfg)

		sp, err := konfig.DefaultSpace(id)
		if err != nil {
			t.Fatal(err)
		}
		points, err := konfig.Enumerate(sp)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := konfig.SweepCampaigns(points, 42, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range sweep {
			checkStamped(t, idx, cfg)
			if cfg.ConfigKey != points[i].Hash() {
				t.Errorf("%s: sweep campaign %d stamped %s, its point hashes %s", id, i, cfg.ConfigKey, points[i].Hash())
			}
		}

		// A probe's captures come from its kernel-layer runner, so
		// each must carry the hash of the matrix point it probed.
		probes, err := konfig.LegacyProbeMatrix(id)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := TightnessReportArch(ctx, 42, 16, id)
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			want := probes[i].Point.Hash()
			if len(rep.Captures) == 0 {
				t.Errorf("%s/%s: probe kept no captures", id, rep.Label)
			}
			for _, c := range rep.Captures {
				if c.Config != want {
					t.Errorf("%s/%s: probe capture stamped %q, want %s", id, rep.Label, c.Config, want)
				}
			}
		}
	}
}
