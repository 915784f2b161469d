package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/fleet"
	"verikern/internal/konfig"
	"verikern/internal/obs"
	"verikern/internal/vspace"
)

// TestShippedConfigsStamped checks that every campaign -soak and
// -fleet-coordinator can select (each -variant × -pinned pair on both
// backends) carries the 16-hex hash of a feasible lattice point whose
// kernel, pinning and backend are the campaign's own, and that the
// default benno+preempt spec is the one the fleet identity test pins.
func TestShippedConfigsStamped(t *testing.T) {
	keyRE := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, id := range []string{arch.ARM1136ID, arch.CVA6RTID} {
		sp, err := konfig.DefaultSpace(id)
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
		for _, variant := range []string{"modern", "original"} {
			for _, pinned := range []bool{false, true} {
				cfg := campaign(variant, id, pinned, 42, 4000, 2)
				if !keyRE.MatchString(cfg.ConfigKey) {
					t.Errorf("%s %s pinned=%v: config key %q is not 16 hex digits", id, variant, pinned, cfg.ConfigKey)
					continue
				}
				p, ok := idx[cfg.ConfigKey]
				if !ok {
					t.Errorf("%s %s pinned=%v: config key %s names no lattice point", id, variant, pinned, cfg.ConfigKey)
					continue
				}
				if err := p.Check(); err != nil {
					t.Errorf("%s %s pinned=%v: stamped point infeasible: %v", id, variant, pinned, err)
				}
				if p.KernelConfig() != cfg.Kernel || p.Pinned() != cfg.Pinned || p.Arch != cfg.Arch {
					t.Errorf("%s %s pinned=%v: campaign {%+v pinned=%v %s} differs from its point {%+v pinned=%v %s}",
						id, variant, pinned, cfg.Kernel, cfg.Pinned, cfg.Arch, p.KernelConfig(), p.Pinned(), p.Arch)
				}
				if pinned != cfg.Pinned {
					t.Errorf("%s %s: -pinned=%v selected pinned=%v", id, variant, pinned, cfg.Pinned)
				}
			}
		}
	}

	// The wire form of the default campaign is fleet's
	// TestSpecIdentityPinned golden (wantJSON) for the same backend.
	want := map[string]string{
		arch.ARM1136ID: `{"label":"benno+preempt","arch":"arm1136","config_key":"0a4a64bb6de9e056","seed":42,"ops":4000,"workers":2,"kernel":{"Scheduler":2,"VSpace":1,"PreemptionPoints":true,"Fastpath":true,"SplitSendReceive":false,"ClearChunkBytes":1024,"CheckInvariants":false}}`,
		arch.CVA6RTID:  `{"label":"benno+preempt","arch":"cva6rt","config_key":"d1e885614ca7ec47","seed":42,"ops":4000,"workers":2,"kernel":{"Scheduler":2,"VSpace":1,"PreemptionPoints":true,"Fastpath":true,"SplitSendReceive":false,"ClearChunkBytes":1024,"CheckInvariants":false}}`,
	}
	for id, wantJSON := range want {
		got, err := json.Marshal(fleet.SpecFromConfig(campaign("modern", id, false, 42, 4000, 2)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != wantJSON {
			t.Errorf("%s: CLI spec encoding\n got %s\nwant %s", id, got, wantJSON)
		}
	}
}

// TestLatencyLineBackendClock: the demo's latency line reads the
// microsecond figure on the backend's clock, so 3631 cycles read
// 6.8 µs at the ARM1136's 532 MHz and 3.6 µs at the CVA6-RT's 1 GHz;
// an empty histogram reads "no samples".
func TestLatencyLineBackendClock(t *testing.T) {
	var h obs.Histogram
	if got := latencyLine(obs.DigestHistogram("", &h), arch.ARM1136); got != "no samples" {
		t.Errorf("empty histogram: %q", got)
	}
	h.Record(1555)
	h.Record(3631)
	d := obs.DigestHistogram("", &h)
	for _, c := range []struct {
		b    *arch.Backend
		want string
	}{{arch.ARM1136, "(max 6.8 µs)"}, {arch.CVA6RT, "(max 3.6 µs)"}} {
		if got := latencyLine(d, c.b); !strings.HasSuffix(got, "max=3631 cycles "+c.want) {
			t.Errorf("%s: %q, want it to end %q", c.b.ID, got, "max=3631 cycles "+c.want)
		}
	}
}
