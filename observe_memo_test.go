package verikern

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"verikern/internal/measure"
	"verikern/internal/obs"
)

// TestObservationMemoSharesCampaigns: one Table 2 + Fig. 8 + Fig. 9
// regeneration asks for 32 polluted campaigns, of which 20 are
// distinct — Fig. 8 re-measures Table 2's eight paths and Fig. 9's
// baseline bars its four L2-off ones — so the memo replays 20 and holds
// 20 entries. Repeating the regeneration adds no entry (one per
// distinct key), and ResetAnalysisCache empties it.
func TestObservationMemoSharesCampaigns(t *testing.T) {
	ctx := context.Background()
	m := obs.NewMetrics()
	ObservePipeline(m)
	defer ObservePipeline(nil)
	ResetAnalysisCache()
	defer ResetAnalysisCache()
	regenerate := func() {
		t.Helper()
		if _, err := Table2(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig8(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig9(ctx, 2); err != nil {
			t.Fatal(err)
		}
	}
	regenerate()
	if got := ObservationCacheStats(); got.Misses != 20 || got.Hits != 12 || got.Entries != 20 {
		t.Errorf("after one regeneration: %+v, want 20 misses, 12 hits, 20 entries", got)
	}
	c := m.Stats().Counters
	if c["measure.campaigns"] != 20 || c["measure.campaign_hits"] != 12 {
		t.Errorf("metrics: measure.campaigns=%d measure.campaign_hits=%d, want 20 and 12",
			c["measure.campaigns"], c["measure.campaign_hits"])
	}
	regenerate()
	if got := ObservationCacheStats(); got.Misses != 20 || got.Hits != 44 || got.Entries != 20 {
		t.Errorf("after a repeat regeneration: %+v, want 20 misses, 44 hits, 20 entries", got)
	}
	ResetAnalysisCache()
	if got := ObservationCacheStats(); got.Hits != 0 || got.Misses != 0 || got.Entries != 0 {
		t.Errorf("after ResetAnalysisCache: %+v, want an empty memo", got)
	}
}

// TestFig9StableAcrossColdRuns: every cold regeneration of Figure 9
// (empty analysis cache and observation memo) reconstructs the same
// worst-case paths and so reports the same bars, the syscall path's
// predictor-enabled bars included.
func TestFig9StableAcrossColdRuns(t *testing.T) {
	ctx := context.Background()
	defer ResetAnalysisCache()
	var first []Fig9Bar
	for i := 0; i < 30; i++ {
		ResetAnalysisCache()
		bars, err := Fig9(ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = bars
			continue
		}
		if !reflect.DeepEqual(bars, first) {
			t.Fatalf("cold run %d: Figure 9 differs from the first cold run\ngot:  %+v\nwant: %+v", i, bars, first)
		}
	}
}

// TestObserveConcurrent: Image.Observe may be called from several
// goroutines at once; every caller gets the Observation a lone call
// gets, and the memo still holds one entry per distinct key.
func TestObserveConcurrent(t *testing.T) {
	ResetAnalysisCache()
	defer ResetAnalysisCache()
	im, err := BuildImage(Modern, false)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := im.Analyze(Hardware{}, Interrupt)
	if err != nil {
		t.Fatal(err)
	}
	hws := []Hardware{{}, {L2Enabled: true}, {BranchPredictor: true}}
	want := make([]measure.Observation, len(hws))
	for i, hw := range hws {
		want[i] = measure.Observe(im.Img, hw, bd.Result.Trace, 4)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(hws)
			if got := im.Observe(hws[i], bd, 4); got != want[i] {
				t.Errorf("goroutine %d: %+v, want %+v", g, got, want[i])
			}
		}(g)
	}
	wg.Wait()
	if got := ObservationCacheStats(); got.Entries != len(hws) || got.Hits+got.Misses != 8 {
		t.Errorf("memo after 8 concurrent calls on %d keys: %+v", len(hws), got)
	}
}
