package wcet

// Randomised soundness testing: generate structured random programs
// with the image builder, analyse them, reconstruct their worst path,
// and replay it on the concrete machine from adversarial cache states.
// The computed bound must dominate every observation under every
// platform configuration — the analysis-wide soundness theorem.

import (
	"fmt"
	"math/rand"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/machine"
)

// strideRegion is the offset from the data segment at which striding
// walks start; fixed loads and stores stay below it.
const strideRegion = 4096

// strides are the steps striding walks draw from, below and above the
// 32-byte line.
var strides = [...]uint32{4, 8, 12, 16, 24, 32, 48, 64}

// pinStrideLines pins each of the stride region's first 16 lines with
// probability one half, so that striding footprints are pinned wholly,
// partly or not at all. The lines map to distinct sets, so one locked
// way holds them all.
func pinStrideLines(img *kimage.Image, rng *rand.Rand, data uint32) {
	for l := uint32(0); l < 16; l++ {
		if rng.Intn(2) == 0 {
			img.PinData(data + strideRegion + l*32)
		}
	}
}

// randWalk draws a striding walk: from any word of one of the stride
// region's first eight lines, by a step below or above the line size,
// over 2 to 17 elements.
func randWalk(rng *rand.Rand, data uint32) (base, stride, count uint32) {
	base = data + strideRegion + uint32(rng.Intn(8))*32 + uint32(rng.Intn(8))*4
	return base, strides[rng.Intn(len(strides))], uint32(2 + rng.Intn(16))
}

// randProgram emits random structured code into b, using rng, with a
// recursion depth budget.
func randProgram(img *kimage.Image, b *kimage.FuncBuilder, rng *rand.Rand, depth int, data uint32) {
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			b.ALU(1 + rng.Intn(12))
		case 1:
			b.Load(data + uint32(rng.Intn(128))*32)
		case 2:
			b.Store(data + uint32(rng.Intn(128))*32)
		case 3:
			if depth > 0 {
				b.If(func(b *kimage.FuncBuilder) {
					randProgram(img, b, rng, depth-1, data)
				}, func(b *kimage.FuncBuilder) {
					randProgram(img, b, rng, depth-1, data)
				})
			} else {
				b.ALU(2)
			}
		case 4:
			if depth > 0 {
				bound := 1 + rng.Intn(6)
				b.Loop(bound, func(b *kimage.FuncBuilder) {
					randProgram(img, b, rng, depth-1, data)
				})
			} else {
				b.ALU(1)
			}
		case 5:
			b.LoadStride(randWalk(rng, data))
		}
	}
}

func TestPropertySoundOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20120410)) // the paper's presentation date
	configs := []arch.Config{
		{},
		{L2Enabled: true},
		{BranchPredictor: true},
		{L2Enabled: true, BranchPredictor: true},
		{PinnedL1Ways: 1},
	}
	for trial := 0; trial < 25; trial++ {
		img := kimage.New()
		data := img.Data("d", 16*1024)
		pinStrideLines(img, rng, data)
		helper := img.NewFunc("helper")
		randProgram(img, helper, rng, 1, data)
		helper.Ret()
		f := img.NewFunc("entry")
		randProgram(img, f, rng, 2, data)
		if rng.Intn(2) == 0 {
			f.Call("helper")
			randProgram(img, f, rng, 1, data)
		}
		f.Ret()
		img.Entries = []string{"entry"}
		if err := img.Link(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, hw := range configs {
			checkSound(t, fmt.Sprintf("trial %d hw %+v", trial, hw), img, hw)
		}
	}
	// Loops around one walk under a pinned line set: the rest of a
	// random program leaves slack enough to hide one uncharged miss,
	// a lone walk does not.
	for trial := 0; trial < 200; trial++ {
		img := kimage.New()
		data := img.Data("d", 16*1024)
		pinStrideLines(img, rng, data)
		f := img.NewFunc("entry")
		base, stride, count := randWalk(rng, data)
		f.Loop(1+rng.Intn(32), func(b *kimage.FuncBuilder) { b.LoadStride(base, stride, count) })
		f.Ret()
		img.Entries = []string{"entry"}
		if err := img.Link(); err != nil {
			t.Fatalf("walk %d: %v", trial, err)
		}
		checkSound(t, fmt.Sprintf("walk %d (%#x, %d, %d)", trial, base, stride, count), img, arch.Config{PinnedL1Ways: 1})
	}
}

// checkSound analyses img's entry under hw and checks that the bound
// dominates the trace-forced cost of its worst path, and that both
// dominate replays of that path from polluted starts.
func checkSound(t *testing.T, label string, img *kimage.Image, hw arch.Config) {
	t.Helper()
	r, err := New(img, hw).Analyze("entry")
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// The trace-forced analysis must also dominate, and never
	// exceed the whole-program bound.
	tc := TraceCycles(img, hw, r.Trace)
	if tc > r.Cycles {
		t.Errorf("%s: trace-forced %d above bound %d", label, tc, r.Cycles)
	}
	for seed := uint32(0); seed < 6; seed++ {
		m := machine.New(hw)
		if failed := m.LoadImage(img); failed != 0 {
			t.Fatalf("%s: %d lines not pinned", label, failed)
		}
		m.Pollute(seed*7 + 1)
		obs := m.Run(r.Trace)
		if obs > r.Cycles {
			t.Fatalf("%s seed %d: observed %d exceeds bound %d", label, seed, obs, r.Cycles)
		}
		if obs > tc {
			t.Fatalf("%s seed %d: observed %d exceeds trace-forced %d", label, seed, obs, tc)
		}
	}
}

// TestPropertyCountsConsistent: on random programs, the ILP's counts
// satisfy flow conservation and the reconstructed trace realises them
// exactly.
func TestPropertyCountsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		img := kimage.New()
		data := img.Data("d", 8192)
		f := img.NewFunc("entry")
		randProgram(img, f, rng, 2, data)
		f.Ret()
		img.Entries = []string{"entry"}
		if err := img.Link(); err != nil {
			t.Fatal(err)
		}
		r, err := New(img, arch.Config{}).Analyze("entry")
		if err != nil {
			t.Fatal(err)
		}
		// Count block executions in the trace and compare with the
		// ILP node counts (summed over inlined copies).
		traceCount := make(map[*kimage.Block]int64)
		for _, blk := range r.Trace {
			traceCount[blk]++
		}
		ilpCount := make(map[*kimage.Block]int64)
		for _, n := range r.Graph.Nodes {
			if n.Block != nil {
				ilpCount[n.Block] += r.Counts[n.ID]
			}
		}
		for blk, want := range ilpCount {
			if traceCount[blk] != want {
				t.Fatalf("trial %d: block %q executes %d times in trace, ILP says %d",
					trial, blk.Name, traceCount[blk], want)
			}
		}
	}
}
