package machine

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// TestReplayAllocs guards the allocation-free replay loop: once a trace
// is compiled and its footprint built, replaying it and priming a
// reused machine for it — footprint dirtying, replacement advance and
// mistraining included — allocate nothing, with and without the L2.
func TestReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	img := kimage.New()
	d := img.Data("buf", 512)
	b := img.NewFunc("f")
	b.ALU(4).Load(d)
	b.Loop(8, func(b *kimage.FuncBuilder) {
		b.LoadStride(d, 32, 8)
		b.ALU(2)
	})
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	// Any block sequence replays; running each block twice gives the
	// strided loads a second execution index.
	var trace []*kimage.Block
	for _, blk := range f.Blocks {
		trace = append(trace, blk, blk)
	}
	r := kimage.Compile(trace)
	spec := PrimeSpec{Seed: 9, Footprint: true, Mistrain: true, ReplacementAdvance: 2}
	for _, cfg := range []arch.Config{{BranchPredictor: true}, {L2Enabled: true, BranchPredictor: true}} {
		m := New(cfg)
		m.LoadImage(img)
		m.PrimeReplay(r, spec)
		m.RunReplay(r)
		if got := testing.AllocsPerRun(100, func() { m.RunReplay(r) }); got != 0 {
			t.Errorf("%+v: RunReplay made %v allocs per run, want 0", cfg, got)
		}
		if got := testing.AllocsPerRun(100, func() { m.PrimeReplay(r, spec) }); got != 0 {
			t.Errorf("%+v: PrimeReplay made %v allocs per run, want 0", cfg, got)
		}
	}
}
