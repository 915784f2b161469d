package kbin

import (
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/loopbound"
	"verikern/internal/machine"
	"verikern/internal/measure"
	"verikern/internal/wcet"
)

func build(t *testing.T, o Options) (*kimage.Image, []wcet.UserConstraint) {
	t.Helper()
	img, cons, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	return img, cons
}

func analyze(t *testing.T, img *kimage.Image, cons []wcet.UserConstraint, hw arch.Config, entry string) *wcet.Result {
	t.Helper()
	a := wcet.New(img, hw)
	a.AddConstraints(cons...)
	r, err := a.Analyze(entry)
	if err != nil {
		t.Fatalf("%s: %v", entry, err)
	}
	return r
}

func TestBuildBothVariants(t *testing.T) {
	for _, mod := range []bool{false, true} {
		img, _ := build(t, Options{Modernised: mod})
		if len(img.Entries) != 4 {
			t.Errorf("mod=%v: %d entries, want 4", mod, len(img.Entries))
		}
		for _, e := range img.Entries {
			if img.Funcs[e] == nil {
				t.Errorf("mod=%v: missing entry %s", mod, e)
			}
		}
		if img.CodeBytes() == 0 {
			t.Error("empty image")
		}
	}
}

func TestPinSetFitsLockedWay(t *testing.T) {
	img, _ := build(t, Options{Modernised: true, Pinned: true})
	if len(img.PinnedLines) == 0 || len(img.PinnedData) == 0 {
		t.Fatal("pinned build has no pin set")
	}
	// One locked way is 4 KiB = 128 lines per cache (§4: they pin
	// 118 instruction lines into a quarter of the cache).
	if n := len(img.PinnedLines); n > 128 {
		t.Errorf("%d pinned instruction lines exceed one way (128)", n)
	}
	if n := len(img.PinnedData); n > 128 {
		t.Errorf("%d pinned data lines exceed one way (128)", n)
	}
	m := machine.New(arch.Config{PinnedL1Ways: 1})
	if failed := m.LoadImage(img); failed != 0 {
		t.Errorf("%d pin installs failed (set conflicts exceed locked capacity)", failed)
	}
}

// TestTable2Shape checks the orderings of Table 2: the modifications
// cut every entry point's bound by a large factor, and enabling the L2
// raises computed bounds.
func TestTable2Shape(t *testing.T) {
	before, bcons := build(t, Options{Modernised: false})
	after, acons := build(t, Options{Modernised: true})
	for _, e := range before.Entries {
		b := analyze(t, before, bcons, arch.Config{}, e)
		a := analyze(t, after, acons, arch.Config{}, e)
		if a.Cycles >= b.Cycles {
			t.Errorf("%s: after (%d) not below before (%d)", e, a.Cycles, b.Cycles)
		}
		aOn := analyze(t, after, acons, arch.Config{L2Enabled: true}, e)
		if aOn.Cycles <= a.Cycles {
			t.Errorf("%s: L2-on bound (%d) not above L2-off (%d)", e, aOn.Cycles, a.Cycles)
		}
	}
	// The syscall improvement is the big one (paper: 11.6x).
	b := analyze(t, before, bcons, arch.Config{}, EntrySyscall)
	a := analyze(t, after, acons, arch.Config{}, EntrySyscall)
	if ratio := float64(b.Cycles) / float64(a.Cycles); ratio < 5 {
		t.Errorf("syscall improvement only %.1fx; paper reports an order of magnitude", ratio)
	}
}

// TestTable1Shape checks cache pinning's effect: every entry point
// improves, and the interrupt path improves the most (paper: 10%
// syscall rising to 46% interrupt).
func TestTable1Shape(t *testing.T) {
	plain, pcons := build(t, Options{Modernised: true})
	pinned, pincons := build(t, Options{Modernised: true, Pinned: true})
	gain := func(entry string) float64 {
		u := analyze(t, plain, pcons, arch.Config{}, entry)
		p := analyze(t, pinned, pincons, arch.Config{PinnedL1Ways: 1}, entry)
		if p.Cycles >= u.Cycles {
			t.Errorf("%s: pinning did not reduce bound (%d vs %d)", entry, p.Cycles, u.Cycles)
		}
		return 100 * (1 - float64(p.Cycles)/float64(u.Cycles))
	}
	gSys := gain(EntrySyscall)
	gPF := gain(EntryPageFault)
	gIRQ := gain(EntryInterrupt)
	if gIRQ <= gSys {
		t.Errorf("interrupt gain (%.0f%%) not above syscall gain (%.0f%%)", gIRQ, gSys)
	}
	if gIRQ < 25 {
		t.Errorf("interrupt gain %.0f%% below the paper's scale (46%%)", gIRQ)
	}
	t.Logf("pinning gains: syscall %.0f%%, pagefault %.0f%%, interrupt %.0f%%", gSys, gPF, gIRQ)
}

// TestSoundness replays each computed worst-case trace on the concrete
// machine under many polluted cache states: observation must never
// exceed the bound.
func TestSoundness(t *testing.T) {
	for _, o := range []Options{{Modernised: true}, {Modernised: true, Pinned: true}} {
		img, cons := build(t, o)
		for _, hw := range []arch.Config{{}, {L2Enabled: true}} {
			if o.Pinned {
				hw.PinnedL1Ways = 1
			}
			for _, e := range img.Entries {
				r := analyze(t, img, cons, hw, e)
				obs := measure.Observe(img, hw, r.Trace, 25)
				if obs.Max > r.Cycles {
					t.Errorf("opts %+v hw %+v %s: observed %d > computed %d",
						o, hw, e, obs.Max, r.Cycles)
				}
			}
		}
	}
}

// TestSoundnessBeforeKernel covers the long before-kernel traces too.
func TestSoundnessBeforeKernel(t *testing.T) {
	img, cons := build(t, Options{Modernised: false})
	for _, e := range img.Entries {
		r := analyze(t, img, cons, arch.Config{}, e)
		obs := measure.Observe(img, arch.Config{}, r.Trace, 3)
		if obs.Max > r.Cycles {
			t.Errorf("%s: observed %d > computed %d", e, obs.Max, r.Cycles)
		}
	}
}

// TestConstraintsTightenBound: the §5.2 constraints exclude infeasible
// cross-switch paths, lowering the syscall bound.
func TestConstraintsTightenBound(t *testing.T) {
	img, cons := build(t, Options{Modernised: true})
	if len(cons) == 0 {
		t.Fatal("build produced no user constraints")
	}
	free := wcet.New(img, arch.Config{})
	rFree, err := free.Analyze(EntrySyscall)
	if err != nil {
		t.Fatal(err)
	}
	constrained := wcet.New(img, arch.Config{})
	constrained.AddConstraints(cons...)
	rCon, err := constrained.Analyze(EntrySyscall)
	if err != nil {
		t.Fatal(err)
	}
	if rCon.Cycles >= rFree.Cycles {
		t.Errorf("constraints did not tighten bound: %d vs %d", rCon.Cycles, rFree.Cycles)
	}
}

// TestHeadlineLatency: the worst-case interrupt latency is the syscall
// bound plus the interrupt bound (§6) and lands near the paper's
// 189,117 cycles for the modernised kernel with L2 off.
func TestHeadlineLatency(t *testing.T) {
	img, cons := build(t, Options{Modernised: true})
	sys := analyze(t, img, cons, arch.Config{}, EntrySyscall)
	irq := analyze(t, img, cons, arch.Config{}, EntryInterrupt)
	total := sys.Cycles + irq.Cycles
	t.Logf("headline latency: %d cycles (%.1f µs); paper: 189117 cycles", total, arch.ARM1136.CyclesToMicros(total))
	if total < 100000 || total > 400000 {
		t.Errorf("headline latency %d cycles outside the paper's magnitude (189117)", total)
	}
}

// TestDecodeLoopBoundMatchesInference cross-checks the authored
// decode-loop annotation against the §5.3 loop-bound inference.
func TestDecodeLoopBoundMatchesInference(t *testing.T) {
	img, _ := build(t, Options{Modernised: true})
	f := img.Funcs["decodeCap"]
	var annotated int
	for _, b := range f.LoopBounds {
		annotated = b
	}
	prog, head := loopbound.CapDecode(1)
	inferred, err := loopbound.Bound(prog, head)
	if err != nil {
		t.Fatal(err)
	}
	// The inference counts header executions (body+1).
	if inferred != annotated+1 {
		t.Errorf("inferred %d header executions, annotation says %d iterations", inferred, annotated)
	}
}

// TestObservedVsComputedRatio reproduces the Table 2 structure: the
// observed/computed ratio is larger for the syscall path than for the
// short paths, and larger with the L2 enabled (§6.2).
func TestObservedVsComputedRatio(t *testing.T) {
	img, cons := build(t, Options{Modernised: true})
	ratio := func(hw arch.Config, entry string) float64 {
		r := analyze(t, img, cons, hw, entry)
		obs := measure.Observe(img, hw, r.Trace, 30)
		return measure.Ratio(r.Cycles, obs.Max)
	}
	offSys := ratio(arch.Config{}, EntrySyscall)
	offIRQ := ratio(arch.Config{}, EntryInterrupt)
	onSys := ratio(arch.Config{L2Enabled: true}, EntrySyscall)
	t.Logf("ratios: L2-off syscall %.2f irq %.2f; L2-on syscall %.2f", offSys, offIRQ, onSys)
	if offSys < 1 || offIRQ < 1 || onSys < 1 {
		t.Fatal("a ratio below 1 would mean an unsound bound")
	}
	if onSys <= offSys {
		t.Errorf("L2 did not increase pessimism: %.2f vs %.2f", onSys, offSys)
	}
}

// TestLoopModelsVerify cross-checks the image's loop annotations
// against the §5.3 model-checked bounds, proves tampering is caught on
// every modelled loop it tries, and checks the unmodelled remainder is
// named.
func TestLoopModelsVerify(t *testing.T) {
	for _, o := range []Options{{Modernised: false}, {Modernised: true}} {
		img, _ := build(t, o)
		models, err := LoopModels(o, img)
		if err != nil {
			t.Fatal(err)
		}
		if len(models) < 5 {
			t.Fatalf("only %d loop models", len(models))
		}
		unmodelled, err := wcet.VerifyBounds(img, models)
		if err != nil {
			t.Fatalf("opts %+v: %v", o, err)
		}
		annotated := 0
		for _, f := range img.Funcs {
			annotated += len(f.LoopBounds)
		}
		if len(models)+len(unmodelled) != annotated {
			t.Errorf("opts %+v: %d modelled + %d unmodelled %v != %d annotated loops",
				o, len(models), len(unmodelled), unmodelled, annotated)
		}
		// Tamper: shrink a loop's annotation below the
		// model-checked bound — VerifyBounds must reject it.
		tampered := []string{"decodeCap"}
		if o.Modernised {
			tampered = append(tampered, "badgedAbort")
		}
		for _, fn := range tampered {
			f := img.Funcs[fn]
			var header string
			for h := range f.LoopBounds {
				header = h
			}
			saved := f.LoopBounds[header]
			f.LoopBounds[header] = saved / 2
			_, err := wcet.VerifyBounds(img, models)
			if err == nil || !strings.Contains(err.Error(), "UNSOUND annotation on "+fn+".") {
				t.Errorf("opts %+v: VerifyBounds on a too-small %s annotation = %v, want UNSOUND", o, fn, err)
			}
			f.LoopBounds[header] = saved
		}
	}
}

// TestTCMAlternative reproduces §5.1's aside: using one L1 way as
// tightly-coupled memory is an alternative to way-locking. The
// interrupt path placed in TCM must beat the unpinned bound, and the
// machine must never exceed the TCM-aware analysis.
func TestTCMAlternative(t *testing.T) {
	plain, pcons := build(t, Options{Modernised: true})
	tcmImg, tcons, err := Build(Options{Modernised: true, TCM: true})
	if err != nil {
		t.Fatal(err)
	}
	itcm, dtcm, err := TCMConfig(tcmImg)
	if err != nil {
		t.Fatal(err)
	}
	hw := arch.Config{TCMEnabled: true, ITCMBase: itcm, DTCMBase: dtcm}

	// The interrupt path must fit the 4 KiB ITCM window.
	var last uint32
	for _, fn := range []string{"entrySave", "irqDispatch", "chooseThread", "exitRestore", EntryInterrupt} {
		f := tcmImg.Funcs[fn]
		for _, blk := range f.Blocks {
			if blk.NumInstrs() > 0 {
				if e := blk.InstrAddr(blk.NumInstrs() - 1); e > last {
					last = e
				}
			}
		}
	}
	if last >= itcm+arch.TCMBytes {
		t.Fatalf("interrupt path ends at %#x, beyond the ITCM window at %#x", last, itcm+arch.TCMBytes)
	}

	base := analyze(t, plain, pcons, arch.Config{}, EntryInterrupt)
	a := wcet.New(tcmImg, hw)
	a.AddConstraints(tcons...)
	tcm, err := a.Analyze(EntryInterrupt)
	if err != nil {
		t.Fatal(err)
	}
	if tcm.Cycles >= base.Cycles {
		t.Errorf("TCM interrupt bound (%d) not below baseline (%d)", tcm.Cycles, base.Cycles)
	}
	// Soundness under the reduced (3-way) caches + TCM.
	obs := measure.Observe(tcmImg, hw, tcm.Trace, 25)
	if obs.Max > tcm.Cycles {
		t.Errorf("observed %d exceeds TCM bound %d", obs.Max, tcm.Cycles)
	}
	t.Logf("interrupt bound: baseline %d, TCM %d cycles", base.Cycles, tcm.Cycles)
}

// TestTCMSoundnessAllEntries: the non-TCM paths run on the shrunken
// 3-way caches; bounds must still dominate.
func TestTCMSoundnessAllEntries(t *testing.T) {
	img, cons, err := Build(Options{Modernised: true, TCM: true})
	if err != nil {
		t.Fatal(err)
	}
	itcm, dtcm, err := TCMConfig(img)
	if err != nil {
		t.Fatal(err)
	}
	hw := arch.Config{TCMEnabled: true, ITCMBase: itcm, DTCMBase: dtcm}
	for _, e := range img.Entries {
		r := analyze(t, img, cons, hw, e)
		obs := measure.Observe(img, hw, r.Trace, 20)
		if obs.Max > r.Cycles {
			t.Errorf("%s: observed %d > computed %d under TCM", e, obs.Max, r.Cycles)
		}
	}
}
