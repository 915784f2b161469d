package verikern

import (
	"context"
	"sync"
	"testing"

	"verikern/internal/kbin"
	"verikern/internal/konfig"
	"verikern/internal/measure"
	"verikern/internal/obs"
	"verikern/internal/wcet"
)

// TestRegenerationWorkCounts: a cold regeneration asks for 8 images of
// 3 distinct build keys (modern, modern pinned, original) and builds 3,
// and uses compiled replays 28 times (Table 2's 8 and Fig. 9's 12
// replayed campaigns, Fig. 8's 8 path costings) over the 8 paths
// Table 2 observes, compiling 8. A repeat regeneration builds and
// compiles nothing, and ResetAnalysisCache empties both tiers.
func TestRegenerationWorkCounts(t *testing.T) {
	m := obs.NewMetrics()
	ObservePipeline(m)
	defer ObservePipeline(nil)
	ResetAnalysisCache()
	defer ResetAnalysisCache()
	check := func(when string, builds, buildHits, compiles, compileHits uint64) {
		t.Helper()
		c := m.Stats().Counters
		if c["verikern.image_builds"] != builds || c["verikern.image_build_hits"] != buildHits {
			t.Errorf("%s: verikern.image_builds=%d verikern.image_build_hits=%d, want %d and %d",
				when, c["verikern.image_builds"], c["verikern.image_build_hits"], builds, buildHits)
		}
		if c["measure.compiles"] != compiles || c["measure.compile_hits"] != compileHits {
			t.Errorf("%s: measure.compiles=%d measure.compile_hits=%d, want %d and %d",
				when, c["measure.compiles"], c["measure.compile_hits"], compiles, compileHits)
		}
	}
	regeneratePaper(t)
	check("cold regeneration", 3, 5, 8, 20)
	if got := sess.images.stats(); got.Entries != 3 || got.Misses != 3 || got.Hits != 5 {
		t.Errorf("image tier after a cold regeneration: %+v, want 3 entries, 3 misses, 5 hits", got)
	}
	if got := sess.replays.stats(); got.Entries != 8 || got.Misses != 8 || got.Hits != 20 {
		t.Errorf("replay tier after a cold regeneration: %+v, want 8 entries, 8 misses, 20 hits", got)
	}
	// The repeat serves every observation from the memo, so only
	// Fig. 8's costings look a replay up.
	regeneratePaper(t)
	check("repeat regeneration", 3, 13, 8, 28)
	ResetAnalysisCache()
	for name, tier := range map[string]wcet.CacheStats{"image": sess.images.stats(), "replay": sess.replays.stats()} {
		if tier != (wcet.CacheStats{}) {
			t.Errorf("%s tier after ResetAnalysisCache: %+v, want empty", name, tier)
		}
	}
	regeneratePaper(t)
	check("regeneration after a reset", 6, 18, 16, 48)
}

// TestImagesNeverShareAcrossBuildOptions: images whose kbin.Options
// differ in any field — kernel generation, pinning, TCM layout,
// backend — are built separately and each matches a fresh kbin.Build;
// a repeat request for any of them shares the built binary but gets its
// own Image, carrying its own point and the metrics current at the
// call, and a constraint slice an append cannot write through.
func TestImagesNeverShareAcrossBuildOptions(t *testing.T) {
	ResetAnalysisCache()
	defer ResetAnalysisCache()
	defer ObservePipeline(nil)
	legacy := func(archID string, modern, pinned bool) LatticePoint {
		np, err := konfig.LegacyPoint(archID, modern, pinned)
		if err != nil {
			t.Fatal(err)
		}
		return np.Point
	}
	tcm := legacy("", true, false)
	tcm.TCMEnabled = true
	points := map[string]LatticePoint{
		"modern":   legacy("", true, false),
		"original": legacy("", false, false),
		"pinned":   legacy("", true, true),
		"tcm":      tcm,
		"cva6rt":   legacy("cva6rt", true, false),
	}
	first := obs.NewMetrics()
	ObservePipeline(first)
	built := make(map[string]*Image)
	byFingerprint := make(map[string]string)
	for name, p := range points {
		im, _, err := BuildImagePoint(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, _, err := kbin.Build(p.KbinOptions())
		if err != nil {
			t.Fatal(err)
		}
		fp := im.Img.Fingerprint()
		if fp != fresh.Fingerprint() {
			t.Errorf("%s: shared image fingerprint %s, a fresh build %s", name, fp, fresh.Fingerprint())
		}
		if other, ok := byFingerprint[fp]; ok {
			t.Errorf("%s and %s share one image", name, other)
		}
		byFingerprint[fp] = name
		built[name] = im
	}
	if got := first.Stats().Counters["verikern.image_builds"]; got != uint64(len(points)) {
		t.Errorf("verikern.image_builds=%d for %d distinct build options", got, len(points))
	}

	second := obs.NewMetrics()
	ObservePipeline(second)
	for name, p := range points {
		im, hw, err := BuildImagePoint(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _, wantHW, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		if hw != wantHW {
			t.Errorf("%s: repeat request hardware %+v, want %+v", name, hw, wantHW)
		}
		prev := built[name]
		switch {
		case im == prev:
			t.Errorf("%s: repeat request returned the first call's Image", name)
		case im.Img != prev.Img:
			t.Errorf("%s: repeat request built the image again", name)
		case im.Img.Fingerprint() != want.Fingerprint():
			t.Errorf("%s: repeat request's image differs from a fresh build", name)
		case im.Metrics != second || prev.Metrics != first:
			t.Errorf("%s: images carry metrics %p and %p, want the ones current at each call", name, prev.Metrics, im.Metrics)
		case im.Point != p:
			t.Errorf("%s: repeat request carries point %s, want %s", name, im.Point.Hash(), p.Hash())
		case cap(im.Constraints) != len(im.Constraints):
			t.Errorf("%s: constraint slice has spare capacity %d", name, cap(im.Constraints)-len(im.Constraints))
		}
	}
	if c := second.Stats().Counters; c["verikern.image_builds"] != 0 || c["verikern.image_build_hits"] != uint64(len(points)) {
		t.Errorf("repeat requests: %v builds, %v hits, want 0 and %d",
			c["verikern.image_builds"], c["verikern.image_build_hits"], len(points))
	}
}

// TestSharedReplayMatchesFresh: every campaign Table 2 and Fig. 9
// observe, and every path Fig. 8 costs, gives through the session's
// shared compiled replays — from several goroutines at once — exactly
// what measure.Observe and wcet.TraceCycles give on a freshly built
// image, analysed without the cache.
func TestSharedReplayMatchesFresh(t *testing.T) {
	ctx := context.Background()
	ResetAnalysisCache()
	defer ResetAnalysisCache()
	const runs = 2
	im, err := BuildImage(Modern, false)
	if err != nil {
		t.Fatal(err)
	}
	img, cons, err := kbin.Build(im.Point.KbinOptions())
	if err != nil {
		t.Fatal(err)
	}
	type campaign struct {
		e        EntryPoint
		analysed Hardware // the bound's hardware
		hw       Hardware // the hardware the path is observed on
	}
	var cs []campaign
	for _, e := range EntryPoints() {
		for _, l2 := range []bool{false, true} {
			cs = append(cs, campaign{e, Hardware{L2Enabled: l2}, Hardware{L2Enabled: l2}})
		}
		for _, cfg := range Fig9Configs {
			if cfg.HW != (Hardware{}) {
				cs = append(cs, campaign{e, Hardware{}, cfg.HW})
			}
		}
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		bd, err := im.AnalyzeContext(ctx, c.analysed, c.e)
		if err != nil {
			t.Fatal(err)
		}
		a := wcet.New(img, c.analysed)
		a.AddConstraints(cons...)
		fresh, err := a.AnalyzeContext(ctx, string(c.e))
		if err != nil {
			t.Fatal(err)
		}
		wantObs := measure.Observe(img, c.hw, fresh.Trace, runs)
		wantCycles := wcet.TraceCycles(img, c.hw, fresh.Trace)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(c campaign) {
				defer wg.Done()
				if got := im.Observe(c.hw, bd, runs); got != wantObs {
					t.Errorf("%s analysed on %+v, observed on %+v: %+v, fresh %+v", c.e, c.analysed, c.hw, got, wantObs)
				}
				if got := im.traceCycles(c.hw, bd); got != wantCycles {
					t.Errorf("%s analysed on %+v, costed on %+v: %d cycles, fresh %d", c.e, c.analysed, c.hw, got, wantCycles)
				}
			}(c)
		}
	}
	wg.Wait()
	if got := sess.replays.stats(); got.Entries != 8 {
		t.Errorf("replay tier: %+v, want one entry per analysed path (8)", got)
	}
}
