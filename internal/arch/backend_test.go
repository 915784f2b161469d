package arch

import (
	"strings"
	"testing"
)

// TestRegistryHasBothBackends pins the registry's contents: the CI
// matrix and the bench artifacts sweep exactly these backends.
func TestRegistryHasBothBackends(t *testing.T) {
	ids := BackendIDs()
	want := []string{ARM1136ID, CVA6RTID}
	if len(ids) != len(want) {
		t.Fatalf("registered backends = %v, want %v", ids, want)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("registered backends = %v, want %v", ids, want)
		}
	}
}

// TestBackendInvariants runs the arch invariants over every registered
// backend: Validate's checks plus the cross-field properties the
// analyser and simulator rely on but Validate states only indirectly.
func TestBackendInvariants(t *testing.T) {
	for _, id := range BackendIDs() {
		b := MustLookup(id)
		t.Run(b.ID, func(t *testing.T) {
			if err := b.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			// Cache geometry divisibility: sets × ways × line == size.
			geoms := map[string]CacheGeometry{"l1i": b.L1I, "l1d": b.L1D}
			if b.HasL2 {
				geoms["l2"] = b.L2
			}
			for name, g := range geoms {
				if g.Sets()*g.Ways*g.LineBytes != g.SizeBytes {
					t.Errorf("%s: sets(%d)*ways(%d)*line(%d) != size(%d)",
						name, g.Sets(), g.Ways, g.LineBytes, g.SizeBytes)
				}
				if g.WaySizeBytes()*g.Ways != g.SizeBytes {
					t.Errorf("%s: way size %d inconsistent with %d ways, %d bytes",
						name, g.WaySizeBytes(), g.Ways, g.SizeBytes)
				}
			}
			// Positive latencies and costs everywhere the model reads them.
			if b.LatMemL2Off == 0 {
				t.Error("zero memory latency")
			}
			for c := Class(0); c < numClasses; c++ {
				if c != Branch && b.BaseCost(c) == 0 {
					t.Errorf("class %v has zero base cost", c)
				}
			}
			// Predictor cost bounds: the analyser's per-branch bound must
			// dominate every cost the simulator can charge.
			worstOff := b.WorstBranchCost(false)
			worstOn := b.WorstBranchCost(true)
			if worstOff == 0 || worstOn == 0 {
				t.Errorf("zero worst-case branch cost (off=%d on=%d)", worstOff, worstOn)
			}
			if b.HasDynamicPredictor {
				if worstOn < b.BranchPredicted || worstOn < b.BranchNoPredict {
					t.Errorf("predictor-on worst branch cost %d below an achievable cost (predicted=%d nopredict=%d)",
						worstOn, b.BranchPredicted, b.BranchNoPredict)
				}
			} else if worstOn != b.BranchNoPredict || worstOff != b.BranchNoPredict {
				t.Errorf("no dynamic predictor but worst branch cost varies: off=%d on=%d want %d",
					worstOff, worstOn, b.BranchNoPredict)
			}
			// The address map must leave room for kernel text and keep
			// user space disjoint from the kernel half.
			if b.KernelHeapBase <= b.KernelBase {
				t.Errorf("kernel heap %#x not above kernel base %#x", b.KernelHeapBase, b.KernelBase)
			}
			if b.UserBase >= b.KernelBase {
				t.Errorf("user base %#x overlaps kernel half at %#x", b.UserBase, b.KernelBase)
			}
			if b.ClockHz == 0 || b.CyclesToMicros(b.ClockHz) != 1e6 {
				t.Errorf("CyclesToMicros inconsistent with clock %d Hz", b.ClockHz)
			}
		})
	}
}

// TestCVA6RTInterruptEntryConstant asserts the deterministic-interrupt
// property the cva6rt backend is built around: the architectural
// interrupt-entry cost is the same nonzero constant under every valid
// hardware configuration.
func TestCVA6RTInterruptEntryConstant(t *testing.T) {
	b := MustLookup(CVA6RTID)
	want := b.InterruptEntryCost(Config{Arch: CVA6RTID})
	if want == 0 {
		t.Fatal("cva6rt interrupt entry cost is zero; the bound composition would not exercise it")
	}
	for pin := 0; pin < 4; pin++ {
		cfg := Config{Arch: CVA6RTID, PinnedL1Ways: pin}
		if err := b.ValidateConfig(cfg); err != nil {
			continue // outside the valid envelope; not a constancy sample
		}
		if got := b.InterruptEntryCost(cfg); got != want {
			t.Errorf("InterruptEntryCost(%+v) = %d, want constant %d", cfg, got, want)
		}
	}
}

// TestValidateConfigRejectsMissingFeatures is ValidateConfig's table:
// every condition it states has a counterexample whose error names it,
// feasible configs pass, and a config with several faults names each
// one, so a diagnostic never hides a second fault behind the first.
func TestValidateConfigRejectsMissingFeatures(t *testing.T) {
	cva := MustLookup(CVA6RTID)
	arm := MustLookup(ARM1136ID)
	cases := []struct {
		name string
		b    *Backend
		cfg  Config
		want []string // one substring per failed condition; none means feasible
	}{
		{"cva6rt-l2", cva, Config{Arch: CVA6RTID, L2Enabled: true}, []string{"no L2 cache"}},
		{"arm-l2lock-disabled", arm, Config{L2LockedKernel: true}, []string{"disabled L2"}},
		{"cva6rt-bpred", cva, Config{Arch: CVA6RTID, BranchPredictor: true}, []string{"no dynamic branch predictor"}},
		{"cva6rt-tcm", cva, Config{Arch: CVA6RTID, TCMEnabled: true}, []string{"no tightly-coupled memory"}},
		{"arm-pin-negative", arm, Config{PinnedL1Ways: -1}, []string{"-1 pinned L1 ways outside [0,4)"}},
		{"arm-pin-under-tcm", arm, Config{TCMEnabled: true, PinnedL1Ways: 3}, []string{"3 pinned L1 ways outside [0,3)"}},
		{"arm-itcm-past-top", arm, Config{TCMEnabled: true, ITCMBase: 0xFFFF_F001}, []string{"ITCM window at 0xfffff001"}},
		{"arm-dtcm-past-top", arm, Config{TCMEnabled: true, DTCMBase: 0xFFFF_FFFC}, []string{"DTCM window at 0xfffffffc"}},
		{"arm-config-for-cva", arm, Config{Arch: CVA6RTID}, []string{`config for "cva6rt"`}},
		{"cva6rt-l2lock", cva, Config{Arch: CVA6RTID, L2Enabled: true, L2LockedKernel: true}, []string{"no L2 cache"}},
		{"cva6rt-l2-and-bpred", cva, Config{Arch: CVA6RTID, L2Enabled: true, BranchPredictor: true},
			[]string{"no L2 cache", "no dynamic branch predictor"}},
		{"cva6rt-tcm-and-pin", cva, Config{Arch: CVA6RTID, TCMEnabled: true, PinnedL1Ways: 3},
			[]string{"no tightly-coupled memory", "3 pinned L1 ways outside [0,3)"}},
		{"cva6rt-baseline", cva, Config{Arch: CVA6RTID}, nil},
		{"cva6rt-pinned", cva, Config{Arch: CVA6RTID, PinnedL1Ways: 1}, nil},
		{"arm-all-features", arm, Config{L2Enabled: true, L2LockedKernel: true, BranchPredictor: true, PinnedL1Ways: 1}, nil},
		{"arm-tcm-top-window", arm, Config{TCMEnabled: true, ITCMBase: 0xFFFF_F000, DTCMBase: 0xFFFF_F000}, nil},
	}
	for _, tc := range cases {
		err := tc.b.ValidateConfig(tc.cfg)
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: config %+v accepted by %s, want rejection", tc.name, tc.cfg, tc.b.ID)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
		if got := strings.Count(err.Error(), "\n") + 1; got != len(tc.want) {
			t.Errorf("%s: error %q reports %d conditions, want %d", tc.name, err, got, len(tc.want))
		}
	}
}

// TestTCMWindowAtTopOfAddressSpace: a window ending exactly at the top
// of the 32-bit address space covers its last word, and a window past
// it is refused instead of wrapping to an empty range.
func TestTCMWindowAtTopOfAddressSpace(t *testing.T) {
	c := Config{TCMEnabled: true, ITCMBase: 0xFFFF_F000, DTCMBase: 0xFFFF_F000}
	for _, addr := range []uint32{0xFFFF_F000, 0xFFFF_FFFC} {
		if !c.InITCM(addr) || !c.InDTCM(addr) {
			t.Errorf("%#x outside the top TCM windows", addr)
		}
	}
	if c.InITCM(0xFFFF_EFFC) || c.InDTCM(0xFFFF_EFFC) {
		t.Error("address below the top TCM windows counted inside")
	}
	if err := ARM1136.ValidateConfig(c); err != nil {
		t.Errorf("top TCM windows refused: %v", err)
	}
	c.ITCMBase++
	if err := ARM1136.ValidateConfig(c); err == nil {
		t.Errorf("ITCM window at %#x accepted, but it runs past the address space", c.ITCMBase)
	}
}

// TestValidateRejectsPredictorTableMismatch: a predictor table size is
// required exactly on backends with a dynamic predictor.
func TestValidateRejectsPredictorTableMismatch(t *testing.T) {
	noTable := *MustLookup(ARM1136ID)
	noTable.PredictorBits = 0
	strayTable := *MustLookup(CVA6RTID)
	strayTable.PredictorBits = 9
	for _, b := range []*Backend{&noTable, &strayTable} {
		if err := b.Validate(); err == nil {
			t.Errorf("%s: predictor bits %d with HasDynamicPredictor=%v accepted", b.ID, b.PredictorBits, b.HasDynamicPredictor)
		}
	}
}

// TestLookup pins the registry's resolution rules: empty means the
// default ARM1136 backend, unknown ids error (and MustLookup panics).
func TestLookup(t *testing.T) {
	b, err := Lookup("")
	if err != nil || b.ID != ARM1136ID {
		t.Fatalf(`Lookup("") = %v, %v; want the arm1136 default`, b, err)
	}
	if _, err := Lookup("m68k"); err == nil || !strings.Contains(err.Error(), "m68k") {
		t.Fatalf(`Lookup("m68k") error = %v, want unknown-backend naming the id`, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup on an unknown backend did not panic")
		}
	}()
	MustLookup("m68k")
}

// TestBackendKeysDistinct: the cache-key component must distinguish
// every registered backend, or switching -arch could share artifacts.
func TestBackendKeysDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, id := range BackendIDs() {
		b := MustLookup(id)
		if prev, dup := seen[b.Key()]; dup {
			t.Fatalf("backends %s and %s share cache key %q", prev, b.ID, b.Key())
		}
		seen[b.Key()] = b.ID
	}
}

// TestConfigBackendResolution: Config.Backend() follows the Arch field
// and panics on an unknown id rather than falling back silently.
func TestConfigBackendResolution(t *testing.T) {
	if (Config{}).Backend().ID != ARM1136ID {
		t.Fatal("zero Config did not resolve to arm1136")
	}
	if (Config{Arch: CVA6RTID}).Backend().ID != CVA6RTID {
		t.Fatal("Config{Arch: cva6rt} did not resolve to cva6rt")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Config with unknown Arch did not panic on Backend()")
		}
	}()
	_ = (Config{Arch: "m68k"}).Backend()
}
