package machine

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// buildLinear returns a linked image with a single straight-line
// function of n ALU instructions and the trace that executes it.
func buildLinear(t *testing.T, n int) (*kimage.Image, []*kimage.Block) {
	t.Helper()
	img := kimage.New()
	b := img.NewFunc("f")
	b.ALU(n)
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	return img, []*kimage.Block{f.Entry()}
}

func TestColdVsWarmRun(t *testing.T) {
	_, trace := buildLinear(t, 64)
	m := New(arch.Config{})
	cold := m.Run(trace)
	warm := m.Run(trace)
	if cold <= warm {
		t.Errorf("cold run (%d) not slower than warm run (%d)", cold, warm)
	}
	// Warm: 64 ALU cycles + 1 branch (5 cycles, predictor off).
	want := uint64(64*1 + 5)
	if warm != want {
		t.Errorf("warm run = %d cycles, want %d", warm, want)
	}
}

func TestMemLatencyL2OffVsOn(t *testing.T) {
	_, traceOff := buildLinear(t, 8)
	mOff := New(arch.Config{L2Enabled: false})
	mOn := New(arch.Config{L2Enabled: true})
	coldOff := mOff.Run(traceOff)
	coldOn := mOn.Run(traceOff)
	// A single-line cold fetch: 60-cycle memory with L2 off, 96 with
	// L2 on (cold L2 misses too).
	if coldOn <= coldOff {
		t.Errorf("cold run with L2 on (%d) not slower than off (%d)", coldOn, coldOff)
	}
	// But a second run after only L1 eviction hits in L2.
	warmOn := mOn.Run(traceOff)
	if warmOn >= coldOn {
		t.Errorf("warm L2 run (%d) not faster than cold (%d)", warmOn, coldOn)
	}
}

func TestPollutionIncreasesTime(t *testing.T) {
	_, trace := buildLinear(t, 128)
	m := New(arch.Config{})
	m.Run(trace) // warm up
	warm := m.Run(trace)
	m.Pollute(1)
	polluted := m.Run(trace)
	if polluted <= warm {
		t.Errorf("polluted run (%d) not slower than warm (%d)", polluted, warm)
	}
}

// TestPolluteForgetsEarlierRuns: measurement campaigns reuse one
// machine across runs, so Pollute must leave a used machine timing
// every later run exactly as a freshly loaded one polluted with the
// same seed.
func TestPolluteForgetsEarlierRuns(t *testing.T) {
	img, trace := buildLinear(t, 128)
	img.PinLines(trace[0].Addr)
	for _, cfg := range []arch.Config{{}, {L2Enabled: true, PinnedL1Ways: 1}} {
		used := New(cfg)
		used.LoadImage(img)
		used.Pollute(7)
		used.Run(trace)
		used.Pollute(9)

		fresh := New(cfg)
		fresh.LoadImage(img)
		fresh.Pollute(9)

		// Cache state itself is compared line by line in package
		// cache; here the two machines must time two runs alike.
		for run := 0; run < 2; run++ {
			if u, f := used.Run(trace), fresh.Run(trace); u != f {
				t.Fatalf("%+v: run %d: used machine ran %d cycles, fresh %d", cfg, run, u, f)
			}
		}
	}
}

func TestPinnedLinesAlwaysHit(t *testing.T) {
	img, trace := buildLinear(t, 16)
	// Pin every line of the function.
	blk := trace[0]
	var lines []uint32
	const line = 32
	for a := blk.Addr &^ uint32(line-1); a < blk.InstrAddr(blk.NumInstrs()-1); a += line {
		lines = append(lines, a)
	}
	img.PinLines(lines...)

	m := New(arch.Config{PinnedL1Ways: 1})
	if failed := m.LoadImage(img); failed != 0 {
		t.Fatalf("%d lines failed to pin", failed)
	}
	m.Pollute(3)
	run := m.Run(trace)
	want := uint64(16*1 + 5) // 16 ALU cycles + the 5-cycle branch
	if run != want {
		t.Errorf("pinned run = %d cycles, want %d (no misses)", run, want)
	}
}

func TestLoadImageWithoutLockedWays(t *testing.T) {
	img, _ := buildLinear(t, 4)
	img.PinLines(img.Funcs["f"].Entry().Addr)
	m := New(arch.Config{PinnedL1Ways: 0})
	// With no locked ways, pinning is silently skipped (not failed):
	// the "without pinning" configuration of Table 1.
	if failed := m.LoadImage(img); failed != 0 {
		t.Errorf("LoadImage reported %d failures with pinning disabled", failed)
	}
}

func TestStridedDataRefsWalk(t *testing.T) {
	img := kimage.New()
	base := img.Data("queue", 32*8)
	b := img.NewFunc("f")
	b.Loop(8, func(b *kimage.FuncBuilder) {
		b.LoadStride(base, 32, 8)
	})
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	// Execute the loop 8 times: header, (body, header) x8, exit.
	var trace []*kimage.Block
	var header, body, exit *kimage.Block
	for _, blk := range f.Blocks {
		switch {
		case f.LoopBounds[blk.Name] > 0:
			header = blk
		case len(blk.Succs) == 1 && blk.Succs[0] != "" && f.LoopBounds[blk.Succs[0]] > 0 && blk != f.Entry():
			body = blk
		}
	}
	for _, blk := range f.Blocks {
		if blk != f.Entry() && blk != header && blk != body && len(blk.Succs) <= 1 {
			exit = blk
		}
	}
	if header == nil || body == nil || exit == nil {
		t.Fatal("could not identify loop blocks")
	}
	trace = append(trace, f.Entry())
	for i := 0; i < 8; i++ {
		trace = append(trace, header, body)
	}
	trace = append(trace, header, exit)

	m := New(arch.Config{})
	m.Run(trace)
	c := m.Counters()
	// 8 distinct lines touched: all 8 data accesses must miss.
	if c.L1DMisses != 8 {
		t.Errorf("L1D misses = %d, want 8 (one per stride step)", c.L1DMisses)
	}

	// A second pass over the same addresses hits.
	m.Run(trace)
	if got := m.Counters().L1DMisses - c.L1DMisses; got != 0 {
		t.Errorf("second walk missed %d times, want 0", got)
	}
}

func TestCountersAccumulate(t *testing.T) {
	_, trace := buildLinear(t, 10)
	m := New(arch.Config{L2Enabled: true})
	m.Run(trace)
	c := m.Counters()
	if c.Instructions != 10 {
		t.Errorf("instructions = %d, want 10", c.Instructions)
	}
	if c.Branches != 1 {
		t.Errorf("branches = %d, want 1", c.Branches)
	}
	if c.L1IMisses == 0 || c.L2Misses == 0 {
		t.Error("cold run recorded no misses")
	}
	m.Run(trace)
	if got := m.Counters(); got.Instructions != 20 || got.Cycles <= c.Cycles {
		t.Errorf("second run: %d instructions, %d cycles; want 20 and more than %d", got.Instructions, got.Cycles, c.Cycles)
	}
}

func TestBranchPredictorLowersWarmCost(t *testing.T) {
	_, trace := buildLinear(t, 4)
	mOff := New(arch.Config{BranchPredictor: false})
	mOn := New(arch.Config{BranchPredictor: true})
	for i := 0; i < 4; i++ {
		mOff.Run(trace)
		mOn.Run(trace)
	}
	off := mOff.Run(trace)
	on := mOn.Run(trace)
	if on >= off {
		t.Errorf("warm run with predictor (%d) not faster than without (%d)", on, off)
	}
}

func TestCyclesToMicros(t *testing.T) {
	if got := arch.ARM1136.CyclesToMicros(532); got != 1.0 {
		t.Errorf("532 cycles = %v µs, want 1.0", got)
	}
}
