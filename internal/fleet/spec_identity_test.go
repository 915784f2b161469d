package fleet

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"verikern/internal/arch"
	"verikern/internal/kernel"
	"verikern/internal/konfig"
	"verikern/internal/sched"
	"verikern/internal/soak"
	"verikern/internal/vspace"
)

// TestSpecIdentityPinned pins the wire encoding of the benno+preempt
// soak spec on both backends, and the coordinator's checkpoint state
// key derived from it. Both are identity: a changed encoding orphans
// every persisted -fleet-state file and makes workers of one release
// disagree with coordinators of another under the same protoVersion.
// A deliberate change must update these goldens and bump protoVersion.
func TestSpecIdentityPinned(t *testing.T) {
	if protoVersion != 4 {
		t.Fatalf("protoVersion = %d; re-derive the goldens below for the new protocol", protoVersion)
	}
	cases := []struct {
		arch     string
		wantJSON string
		wantKey  string
	}{
		{
			arch:     arch.ARM1136ID,
			wantJSON: `{"label":"benno+preempt","arch":"arm1136","config_key":"0a4a64bb6de9e056","seed":42,"ops":4000,"workers":2,"kernel":{"Scheduler":2,"VSpace":1,"PreemptionPoints":true,"Fastpath":true,"SplitSendReceive":false,"ClearChunkBytes":1024,"CheckInvariants":false}}`,
			wantKey:  "ae902a24022b0ccf6e9c95bdb87c28c7007e84ecbff3c2e428e832c3be1a3203",
		},
		{
			arch:     arch.CVA6RTID,
			wantJSON: `{"label":"benno+preempt","arch":"cva6rt","config_key":"d1e885614ca7ec47","seed":42,"ops":4000,"workers":2,"kernel":{"Scheduler":2,"VSpace":1,"PreemptionPoints":true,"Fastpath":true,"SplitSendReceive":false,"ClearChunkBytes":1024,"CheckInvariants":false}}`,
			wantKey:  "90a6aa6ce1e5967b69f238e819a1460eda67822b36a8bf5c648871dc8ced6eb4",
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, tc := range cases {
		t.Run(tc.arch, func(t *testing.T) {
			m, err := konfig.LegacySoakMatrix(tc.arch)
			if err != nil {
				t.Fatal(err)
			}
			var cfg soak.Config
			for _, np := range m {
				if np.Name == "benno+preempt" {
					cfg = soak.Config{
						Label:     np.Name,
						Arch:      tc.arch,
						ConfigKey: np.Point.Hash(),
						Seed:      42,
						Ops:       4000,
						Workers:   2,
						Kernel:    np.Point.KernelConfig(),
						Pinned:    np.Point.Pinned(),
					}
				}
			}
			if cfg.Label == "" {
				t.Fatal("legacy soak matrix has no benno+preempt point")
			}
			got, err := json.Marshal(SpecFromConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.wantJSON {
				t.Errorf("spec encoding changed:\n got %s\nwant %s", got, tc.wantJSON)
			}
			c, err := New(ctx, Config{Spec: SpecFromConfig(cfg)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			if c.stateKey != tc.wantKey {
				t.Errorf("state key changed: got %s, want %s", c.stateKey, tc.wantKey)
			}
		})
	}
}

// TestSpecCarriesWholeCampaign checks that the wire carries every
// soak.Config field: a config with no zero field survives the
// SpecFromConfig → JSON → Spec → SoakConfig round trip unchanged.
func TestSpecCarriesWholeCampaign(t *testing.T) {
	want := soak.Config{
		Label:     "whole",
		Arch:      arch.CVA6RTID,
		ConfigKey: "0123456789abcdef",
		Seed:      7,
		Ops:       9000,
		Workers:   3,
		Kernel: kernel.Config{
			Scheduler:        sched.Benno,
			VSpace:           vspace.ShadowDesign,
			PreemptionPoints: true,
			Fastpath:         true,
			SplitSendReceive: true,
			ClearChunkBytes:  512,
			CheckInvariants:  true,
		},
		Pinned:        true,
		BoundCycles:   123_456,
		MarginPercent: 12.5,
		MaxCaptures:   5,
		CaptureNewMax: true,
	}
	assertNoZeroField(t, "soak.Config", reflect.ValueOf(want))
	b, err := json.Marshal(SpecFromConfig(want))
	if err != nil {
		t.Fatal(err)
	}
	var sp Spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	if got := sp.SoakConfig(); got != want {
		t.Errorf("round trip through %s:\n got %+v\nwant %+v", b, got, want)
	}
}

// assertNoZeroField fails for every zero field of the struct v,
// descending into nested structs.
func assertNoZeroField(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+"."+v.Type().Field(i).Name
		if f.IsZero() {
			t.Errorf("%s is zero; give it a non-zero value so the round trip covers it", name)
		} else if f.Kind() == reflect.Struct {
			assertNoZeroField(t, name, f)
		}
	}
}
