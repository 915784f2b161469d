package measure

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/wcet"
)

func testImage(t *testing.T) *kimage.Image {
	t.Helper()
	img := kimage.New()
	data := img.Data("d", 2048)
	b := img.NewFunc("entry")
	b.ALU(16)
	b.Loop(8, func(b *kimage.FuncBuilder) {
		b.LoadStride(data, 32, 8)
		b.ALU(2)
	})
	b.Ret()
	img.Entries = []string{"entry"}
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	return img
}

func TestObserveBelowComputed(t *testing.T) {
	img := testImage(t)
	for _, hw := range []arch.Config{{}, {L2Enabled: true}} {
		r, err := wcet.New(img, hw).Analyze("entry")
		if err != nil {
			t.Fatal(err)
		}
		o := Observe(img, hw, r.Trace, 50)
		if o.Max > r.Cycles {
			t.Errorf("hw %+v: observed max %d exceeds computed %d", hw, o.Max, r.Cycles)
		}
		if o.Max == 0 {
			t.Errorf("hw %+v: inconsistent observation %+v", hw, o)
		}
		if o.Runs != 50 {
			t.Errorf("runs = %d, want 50", o.Runs)
		}
	}
}

func TestRatioAndOverestimation(t *testing.T) {
	if got := Ratio(300, 100); got != 3 {
		t.Errorf("Ratio = %v, want 3", got)
	}
	if got := OverestimationPercent(150, 100); got != 50 {
		t.Errorf("OverestimationPercent = %v, want 50", got)
	}
	if Ratio(5, 0) != 0 || OverestimationPercent(5, 0) != 0 {
		t.Error("zero observed not handled")
	}
}

func TestObserveDefaultsRuns(t *testing.T) {
	img := testImage(t)
	r, err := wcet.New(img, arch.Config{}).Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	o := Observe(img, arch.Config{}, r.Trace, 0)
	if o.Runs != 1 {
		t.Errorf("runs = %d, want 1", o.Runs)
	}
}

// TestPolluteSeed locks the seed-derivation properties campaigns rely
// on: deterministic, never zero, and base-separated (two campaigns
// with different bases share no early seeds).
func TestPolluteSeed(t *testing.T) {
	if PolluteSeed(1, 5) != PolluteSeed(1, 5) {
		t.Error("PolluteSeed not deterministic")
	}
	seen := map[uint32]bool{}
	for base := uint64(0); base < 4; base++ {
		for run := 0; run < 64; run++ {
			s := PolluteSeed(base, run)
			if s == 0 {
				t.Fatalf("PolluteSeed(%d,%d) = 0", base, run)
			}
			if seen[s] {
				t.Fatalf("PolluteSeed(%d,%d) = %d collides across campaigns", base, run, s)
			}
			seen[s] = true
		}
	}
}
