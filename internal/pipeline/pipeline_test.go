package pipeline

import (
	"testing"
	"testing/quick"

	"verikern/internal/arch"
)

func TestDisabledPredictorConstantCost(t *testing.T) {
	p := NewPredictorArch(arch.ARM1136, false, 8)
	f := func(addr uint32, taken bool) bool {
		return p.Branch(addr, taken) == arch.ARM1136.BranchNoPredict
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if c, w := p.Stats(); c != 0 || w != 0 {
		t.Error("disabled predictor accumulated statistics")
	}
}

func TestPredictorLearnsLoop(t *testing.T) {
	p := NewPredictorArch(arch.ARM1136, true, 8)
	const addr = 0x8000
	// A loop branch taken many times: after warm-up every branch is
	// predicted.
	var last uint64
	for i := 0; i < 20; i++ {
		last = p.Branch(addr, true)
	}
	if last != arch.ARM1136.BranchPredicted {
		t.Errorf("warmed-up taken branch cost %d, want %d", last, arch.ARM1136.BranchPredicted)
	}
	correct, wrong := p.Stats()
	if wrong == 0 {
		t.Error("cold predictor never mispredicted a taken branch")
	}
	if correct == 0 {
		t.Error("predictor never learned the loop")
	}
}

func TestPredictorColdNotTakenBias(t *testing.T) {
	p := NewPredictorArch(arch.ARM1136, true, 8)
	// Cold counters are not-taken: a first not-taken branch is
	// predicted correctly, a first taken branch is not.
	if got := p.Branch(0x100, false); got != arch.ARM1136.BranchPredicted {
		t.Errorf("cold not-taken branch cost %d, want %d", got, arch.ARM1136.BranchPredicted)
	}
	if got := p.Branch(0x200, true); got != arch.ARM1136.BranchMispredict {
		t.Errorf("cold taken branch cost %d, want %d", got, arch.ARM1136.BranchMispredict)
	}
}

func TestPredictorReset(t *testing.T) {
	p := NewPredictorArch(arch.ARM1136, true, 4)
	for i := 0; i < 10; i++ {
		p.Branch(0x40, true)
	}
	p.Reset()
	if c, w := p.Stats(); c != 0 || w != 0 {
		t.Error("Reset did not clear statistics")
	}
	if got := p.Branch(0x40, true); got != arch.ARM1136.BranchMispredict {
		t.Error("Reset did not return counters to cold state")
	}
}

func TestWorstBranchCost(t *testing.T) {
	if arch.ARM1136.WorstBranchCost(false) != arch.ARM1136.BranchNoPredict {
		t.Error("wrong analyser bound with predictor disabled")
	}
	if arch.ARM1136.WorstBranchCost(true) != arch.ARM1136.BranchMispredict {
		t.Error("wrong analyser bound with predictor enabled")
	}
}

// Property: simulated branch cost never exceeds the analyser's bound —
// the soundness relation for the branch model.
func TestPropertyBranchCostBounded(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		p := NewPredictorArch(arch.ARM1136, enabled, 10)
		bound := arch.ARM1136.WorstBranchCost(enabled)
		f := func(addr uint32, taken bool) bool {
			return p.Branch(addr, taken) <= bound
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("enabled=%v: %v", enabled, err)
		}
	}
}
