package measure

import (
	"strings"
	"testing"

	"verikern/internal/obs"

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
		if o.Max == 0 || o.Min > o.Max || o.Mean > float64(o.Max) || o.Mean < float64(o.Min) {
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

func TestSummarize(t *testing.T) {
	if s := SummarizeHistogram(&obs.Histogram{}); s.Count != 0 || s.Text(arch.ARM1136) != "no samples" {
		t.Errorf("empty summary: %+v", s)
	}
	var h obs.Histogram
	for i := 1; i <= 100; i++ {
		h.Record(uint64(i))
	}
	s := SummarizeHistogram(&h)
	if s.Min != 1 || s.Max != 100 || s.Count != 100 {
		t.Errorf("summary %+v", s)
	}
	// Quantiles follow obs.Histogram's conservative semantics: an
	// upper bound on the exact percentile, capped at the max.
	if s.P50 < 50 || s.P90 < 90 || s.P99 < 99 {
		t.Errorf("quantile understates exact percentile: p50=%d p90=%d p99=%d", s.P50, s.P90, s.P99)
	}
	if s.P50 > s.Max || s.P90 > s.Max || s.P99 > s.Max {
		t.Errorf("quantile exceeds max: %+v", s)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotone: %+v", s)
	}
	if s.Mean != 50.5 {
		t.Errorf("mean %v", s.Mean)
	}
	if !strings.Contains(s.Text(arch.ARM1136), "max=100") {
		t.Errorf("Text() = %q", s.Text(arch.ARM1136))
	}
	var shuffled obs.Histogram
	for _, v := range []uint64{5, 1, 3, 2, 4} {
		shuffled.Record(v)
	}
	if got := SummarizeHistogram(&shuffled); got.P50 < 3 || got.Min != 1 || got.Max != 5 {
		t.Errorf("unsorted input summary %+v", got)
	}
}

// TestSummaryTextBackendClock: the microsecond figure uses the
// backend's clock, so 3631 cycles read 6.8 µs at the ARM1136's 532 MHz
// and 3.6 µs at the CVA6-RT's 1 GHz.
func TestSummaryTextBackendClock(t *testing.T) {
	var h obs.Histogram
	h.Record(1555)
	h.Record(3631)
	s := SummarizeHistogram(&h)
	for _, c := range []struct {
		b    *arch.Backend
		want string
	}{{arch.ARM1136, "(max 6.8 µs)"}, {arch.CVA6RT, "(max 3.6 µs)"}} {
		if got := s.Text(c.b); !strings.HasSuffix(got, "max=3631 cycles "+c.want) {
			t.Errorf("%s: %q, want it to end %q", c.b.ID, got, "max=3631 cycles "+c.want)
		}
	}
}

// TestSummarizeMatchesHistogram pins that the digest agrees with
// obs.Histogram's own accessors: the exact-percentile vs
// bucketed-quantile split the two packages used to have is gone.
func TestSummarizeMatchesHistogram(t *testing.T) {
	var h obs.Histogram
	for _, v := range []uint64{3, 17, 90, 1500, 1500, 65536, 7} {
		h.Record(v)
	}
	a := SummarizeHistogram(&h)
	if a.P50 != h.Quantile(0.50) || a.P90 != h.Quantile(0.90) || a.P99 != h.Quantile(0.99) ||
		a.Min != h.Min() || a.Max != h.Max() || a.Mean != h.Mean() || uint64(a.Count) != h.Count() {
		t.Errorf("digest disagrees with histogram: %+v", a)
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

// TestObserveSeededReproducible: same base, same observation; the
// default campaign is ObserveSeeded(base=0).
func TestObserveSeededReproducible(t *testing.T) {
	img := testImage(t)
	r, err := wcet.New(img, arch.Config{}).Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	a := ObserveSeeded(img, arch.Config{}, r.Trace, 16, 42)
	b := ObserveSeeded(img, arch.Config{}, r.Trace, 16, 42)
	if a != b {
		t.Errorf("seeded campaigns differ: %+v vs %+v", a, b)
	}
	if d := Observe(img, arch.Config{}, r.Trace, 16); d != ObserveSeeded(img, arch.Config{}, r.Trace, 16, 0) {
		t.Errorf("Observe is not ObserveSeeded(base=0): %+v", d)
	}
}
