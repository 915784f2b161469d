package machine

import (
	"slices"
	"sync"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// TestReplaySharedAcrossGoroutines: one compiled replay serves several
// goroutines at once. Each footprints it, primes its own machine with
// it and replays it, and gets the footprint and the cycles a lone
// caller gets from a replay of its own.
func TestReplaySharedAcrossGoroutines(t *testing.T) {
	img := kimage.New()
	d := img.Data("buf", 1024)
	b := img.NewFunc("f")
	b.ALU(3).Load(d)
	b.Loop(16, func(b *kimage.FuncBuilder) {
		b.LoadStride(d, 32, 16)
		b.ALU(2)
	})
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	var trace []*kimage.Block
	for _, blk := range f.Blocks {
		trace = append(trace, blk, blk)
	}
	spec := PrimeSpec{Seed: 5, Footprint: true, Mistrain: true, ReplacementAdvance: 1}
	cfgs := []arch.Config{{}, {L2Enabled: true}, {L2Enabled: true, BranchPredictor: true}}
	lone := func(cfg arch.Config) uint64 {
		m := New(cfg)
		m.LoadImage(img)
		m.PrimeReplay(kimage.Compile(trace), spec)
		return m.RunReplay(kimage.Compile(trace))
	}
	wantCode, wantData := kimage.Compile(trace).Footprint()
	want := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = lone(cfg)
	}

	shared := kimage.Compile(trace)
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			code, data := shared.Footprint()
			if !slices.Equal(code, wantCode) || !slices.Equal(data, wantData) {
				t.Errorf("goroutine %d: footprint differs from a lone replay's", g)
			}
			i := g % len(cfgs)
			m := New(cfgs[i])
			m.LoadImage(img)
			m.PrimeReplay(shared, spec)
			if got := m.RunReplay(shared); got != want[i] {
				t.Errorf("goroutine %d, %+v: %d cycles, a lone replay %d", g, cfgs[i], got, want[i])
			}
		}(g)
	}
	wg.Wait()
}
