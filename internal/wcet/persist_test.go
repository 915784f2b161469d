package wcet

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/machine"
)

// loopImage builds a single loop of iters iterations around body.
func loopImage(t *testing.T, iters int, body func(*kimage.FuncBuilder)) *kimage.Image {
	t.Helper()
	img := kimage.New()
	b := img.NewFunc("entry")
	b.ALU(2)
	b.Loop(iters, body)
	b.Ret()
	img.Entries = []string{"entry"}
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	return img
}

// wayInstrs is the number of instructions that fill one way of the L1
// instruction cache, the one-way model's whole capacity.
var wayInstrs = arch.ARM1136.L1I.WaySizeBytes() / 4

func TestFirstMissChargedOncePerLoop(t *testing.T) {
	img := loopImage(t, 64, func(b *kimage.FuncBuilder) { b.ALU(16) })
	r, err := New(img, arch.Config{}).Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	// The body's fetches are persistent: classified first-miss, not
	// per-iteration miss.
	if r.Classified.FetchFirstMiss == 0 {
		t.Error("loop-body fetches not classified first-miss")
	}
	// The bound must therefore be far below a fetch miss on every
	// iteration: roughly base costs × 64 plus a handful of one-off
	// misses.
	perIterationMiss := uint64(64) * fetchMissCost(arch.Config{})
	if r.Cycles >= perIterationMiss {
		t.Errorf("bound %d still charges the persistent fetches per iteration (>= %d)",
			r.Cycles, perIterationMiss)
	}
}

func TestConflictDefeatsPersistence(t *testing.T) {
	// A body longer than one way of the instruction cache: its first
	// and last lines map to the same direct-mapped set, so neither is
	// persistent. The lines between them still are.
	img := loopImage(t, 32, func(b *kimage.FuncBuilder) { b.ALU(wayInstrs + 16) })
	r, err := New(img, arch.Config{}).Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	if r.Classified.FetchFirstMiss == 0 {
		t.Error("no body fetch classified first-miss")
	}
	// Both conflicting lines must be charged on every one of the 32
	// iterations.
	if want := uint64(32) * 2 * fetchMissCost(arch.Config{}); r.Cycles < want {
		t.Errorf("bound %d below per-iteration charge %d for the conflicting lines", r.Cycles, want)
	}
}

// TestPersistenceSoundUnderReplay: with persistence active, the
// machine's observation must still never exceed the bound — including
// from a polluted start, where the first iteration genuinely misses.
func TestPersistenceSoundUnderReplay(t *testing.T) {
	img := kimage.New()
	data := img.Data("d", 8192)
	b := img.NewFunc("entry")
	b.Loop(200, func(b *kimage.FuncBuilder) {
		b.Load(data)
		b.ALU(3)
	})
	b.Ret()
	img.Entries = []string{"entry"}
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	for _, hw := range []arch.Config{{}, {L2Enabled: true}} {
		r, err := New(img, hw).Analyze("entry")
		if err != nil {
			t.Fatal(err)
		}
		if r.Classified.FetchFirstMiss == 0 {
			t.Fatalf("hw %+v: no fetch classified first-miss", hw)
		}
		for seed := uint32(0); seed < 10; seed++ {
			m := machine.New(hw)
			m.Pollute(seed + 1)
			if obs := m.Run(r.Trace); obs > r.Cycles {
				t.Fatalf("hw %+v: observed %d > bound %d", hw, obs, r.Cycles)
			}
		}
	}
}

func TestNestedLoopPersistencePerEntry(t *testing.T) {
	// The outer body fills a whole way of the instruction cache, so
	// it evicts the inner loop's lines on every outer iteration. Those
	// lines are persistent in the inner loop only, so their one miss
	// must be charged per inner-loop entry (the outer bound's times),
	// not once globally and not per inner iteration.
	const outer, inner = 4, 256
	img := loopImage(t, outer, func(b *kimage.FuncBuilder) {
		b.ALU(wayInstrs)
		b.Loop(inner, func(b *kimage.FuncBuilder) { b.ALU(2) })
	})
	hw := arch.Config{}
	r, err := New(img, hw).Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	if r.Classified.FetchFirstMiss == 0 {
		t.Error("inner-loop fetches not classified first-miss")
	}
	// Charging the inner body's line on every inner iteration would
	// cost outer × inner fetch misses.
	if perIteration := uint64(outer*inner) * fetchMissCost(hw); r.Cycles >= perIteration {
		t.Errorf("bound %d charges the inner loop's line per iteration (>= %d)", r.Cycles, perIteration)
	}
	// Replay: still sound.
	for seed := uint32(1); seed <= 4; seed++ {
		m := machine.New(hw)
		m.Pollute(seed)
		if obs := m.Run(r.Trace); obs > r.Cycles {
			t.Fatalf("seed %d: observed %d > bound %d", seed, obs, r.Cycles)
		}
	}
}
