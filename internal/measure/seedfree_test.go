package measure_test

import (
	"fmt"
	"math/bits"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/kimage"
	"verikern/internal/konfig"
	"verikern/internal/machine"
	"verikern/internal/measure"
	"verikern/internal/wcet"
)

// everySeedCycles is the campaign by definition: run i replays r on a
// freshly loaded machine polluted with PolluteSeed(base, i). It returns
// each run's cycles.
func everySeedCycles(img *kimage.Image, hw arch.Config, r *kimage.Replay, runs int, base uint64) []uint64 {
	cycles := make([]uint64, runs)
	for i := range cycles {
		m := machine.New(hw)
		m.LoadImage(img)
		m.Pollute(measure.PolluteSeed(base, i))
		cycles[i] = m.RunReplay(r)
	}
	return cycles
}

// summarize is the Observation of a campaign's per-run cycles.
func summarize(cycles []uint64) measure.Observation {
	o := measure.Observation{Runs: len(cycles)}
	for _, c := range cycles {
		o.Max = max(o.Max, c)
	}
	return o
}

// checkObserve compares Observe with the every-seed loop for runs 1,
// 3 and 64 and base seeds 0 and 42, and requires every run of the loop
// to take the same time. Run i's seed does not depend on the run
// count, so the shorter campaigns are prefixes of the 64-run one.
func checkObserve(t *testing.T, name string, img *kimage.Image, hw arch.Config, trace []*kimage.Block) {
	t.Helper()
	r := kimage.Compile(trace)
	for _, base := range []uint64{0, 42} {
		cycles := everySeedCycles(img, hw, r, 64, base)
		for i, c := range cycles {
			if c != cycles[0] {
				t.Errorf("%s base=%d: run %d takes %d cycles, run 0 %d", name, base, i, c, cycles[0])
			}
		}
		for _, runs := range []int{1, 3, 64} {
			want := summarize(cycles[:runs])
			if got := measure.Observe(img, hw, trace, runs); got != want {
				t.Errorf("%s runs=%d base=%d: Observe %+v, every-seed loop %+v", name, runs, base, got, want)
			}
		}
	}
}

// seedCampaignPoints lists every observed campaign configuration of
// the paper's drivers on both backends — kernel generation × L1
// pinning × L2 × branch predictor, where the backend has them — plus
// the ablations' TCM and L2-locked-kernel points.
func seedCampaignPoints(t *testing.T) map[string]konfig.Point {
	t.Helper()
	pts := make(map[string]konfig.Point)
	for _, id := range arch.BackendIDs() {
		be := arch.MustLookup(id)
		for _, modern := range []bool{true, false} {
			for _, pinned := range []bool{false, true} {
				np, err := konfig.LegacyPoint(id, modern, pinned)
				if err != nil {
					t.Fatal(err)
				}
				for _, l2 := range []bool{false, true} {
					for _, bp := range []bool{false, true} {
						if l2 && !be.HasL2 || bp && !be.HasDynamicPredictor {
							continue
						}
						p := np.Point
						p.L2Enabled, p.BranchPredictor = l2, bp
						pts[fmt.Sprintf("%s/%s/l2=%v/bpred=%v", id, np.Name, l2, bp)] = p
					}
				}
			}
		}
	}
	// The ablations' hardware: the TCM and the L2-locked kernel, which
	// only the ARM1136 has.
	abl, err := konfig.DefaultPoint(arch.ARM1136ID)
	if err != nil {
		t.Fatal(err)
	}
	tcm := abl
	tcm.TCMEnabled = true
	pts["arm1136/tcm"] = tcm
	abl.L2Enabled, abl.L2LockedKernel = true, true
	pts["arm1136/l2-locked-kernel"] = abl
	return pts
}

// TestObserveSeededMatchesEverySeed: Observe's one polluted replay
// gives exactly the Observation of replaying under every seed, on every
// paper campaign of both backends.
func TestObserveSeededMatchesEverySeed(t *testing.T) {
	c := wcet.NewCache()
	for name, p := range seedCampaignPoints(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := p.Check(); err != nil {
				t.Fatal(err)
			}
			a, err := p.Analyzer(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, entry := range kbin.Entries {
				res, err := a.Analyze(entry)
				if err != nil {
					t.Fatal(err)
				}
				checkObserve(t, entry, a.Img, a.HW, res.Trace)
			}
		})
	}
}

// bandTrace returns a one-block trace of two loads from the addresses
// whose tag the ARM1136's L1D pollution with PolluteSeed(0, 3) once
// installed in the first way of sets 0 and 1, when pollution lines
// took tags from a band that addresses reach. That run then hit twice
// (74 cycles) where every other run missed twice (208 cycles).
func bandTrace() []*kimage.Block {
	l1d := arch.ARM1136.L1D
	lineShift := bits.TrailingZeros(uint(l1d.LineBytes))
	tagShift := lineShift + bits.TrailingZeros(uint(l1d.Sets()))
	seed := measure.PolluteSeed(0, 3) ^ 0x5555 // Machine.Pollute's L1D seed
	addr := (0x40000 | seed&0xFFFF) << tagShift
	return []*kimage.Block{{
		Name: "band",
		Addr: 0x1000,
		Instrs: []kimage.Instr{
			{Class: arch.Load, Data: kimage.DataRef{Base: addr}},
			{Class: arch.Load, Data: kimage.DataRef{Base: addr | 1<<lineShift}},
		},
	}}
}

// TestObserveBandTrace: the band trace misses both loads under every
// pollution seed, and Observe reads that time.
func TestObserveBandTrace(t *testing.T) {
	img := kimage.New()
	hw := arch.Config{}
	trace := bandTrace()
	checkObserve(t, "band", img, hw, trace)
	if o := measure.Observe(img, hw, trace, 64); o.Max != 208 {
		t.Errorf("band campaign: max %d, want 208", o.Max)
	}
}

// TestObserveAllocs: a campaign allocates no more than the machine, the
// image load and the compiled trace it needs.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, err := konfig.DefaultPoint(arch.ARM1136ID)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyzer(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Analyze(kbin.EntrySyscall)
	if err != nil {
		t.Fatal(err)
	}
	setup := testing.AllocsPerRun(10, func() {
		m := machine.New(a.HW)
		m.LoadImage(a.Img)
		kimage.Compile(res.Trace)
	})
	got := testing.AllocsPerRun(10, func() { measure.Observe(a.Img, a.HW, res.Trace, 64) })
	if got > setup {
		t.Errorf("Observe made %v allocs, want at most the %v of its machine, image load and compiled trace", got, setup)
	}
}
