package arch

import (
	"testing"
	"testing/quick"
)

func TestCacheGeometry(t *testing.T) {
	if got := ARM1136.L1I.Sets(); got != 128 {
		t.Errorf("L1I sets = %d, want 128", got)
	}
	if got := ARM1136.L1I.WaySizeBytes(); got != 4096 {
		t.Errorf("L1I way size = %d, want 4096", got)
	}
	if got := ARM1136.L2.Sets(); got != 512 {
		t.Errorf("L2 sets = %d, want 512", got)
	}
	if got := ARM1136.L2.WaySizeBytes(); got != 16384 {
		t.Errorf("L2 way size = %d, want 16 KiB", got)
	}
}

// TestMemLatencyBySetting pins the KZM board's memory latencies
// (§5.1): 60 cycles with the L2 disabled, 96 with it enabled.
func TestMemLatencyBySetting(t *testing.T) {
	if got := ARM1136.LatMemL2Off; got != 60 {
		t.Errorf("L2-off latency %d, want 60", got)
	}
	if got := ARM1136.LatMemL2On; got != 96 {
		t.Errorf("L2-on latency %d, want 96", got)
	}
}

func TestCyclesToMicros(t *testing.T) {
	// 532 cycles = 1 µs on the 532 MHz clock.
	if got := ARM1136.CyclesToMicros(532_000_000); got != 1e6 {
		t.Errorf("one second = %v µs", got)
	}
	if got := ARM1136.CyclesToMicros(0); got != 0 {
		t.Errorf("zero cycles = %v µs", got)
	}
}

func TestBaseCostsPositive(t *testing.T) {
	for c := Class(0); c < Class(NumClasses); c++ {
		if c == Branch {
			if ARM1136.BaseCost(c) != 0 {
				t.Error("branch base cost must defer to the predictor model")
			}
			continue
		}
		if ARM1136.BaseCost(c) == 0 {
			t.Errorf("class %v has zero base cost", c)
		}
		if c.String() == "unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
}

// Property: every class's base cost is bounded by the system-op cost —
// no ALU-class instruction can dominate a memory access.
func TestPropertyBaseCostsBounded(t *testing.T) {
	f := func(b uint8) bool {
		c := Class(b % uint8(NumClasses))
		return ARM1136.BaseCost(c) <= ARM1136.BaseCost(System)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelWindowConstant(t *testing.T) {
	if ARM1136.KernelWindowBytes != 1024 {
		t.Errorf("kernel window %d bytes, want the paper's 1 KiB", ARM1136.KernelWindowBytes)
	}
}
