package probe

import (
	"math/bits"
	"math/rand"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/kimage"
	"verikern/internal/konfig"
	"verikern/internal/machine"
	"verikern/internal/obs"
	"verikern/internal/wcet"
)

// searchBoth runs searchMachine with and without shared replays from
// the same rng seed, and returns both entries and the shared run's
// counters.
func searchBoth(img *kimage.Image, hw arch.Config, res *wcet.Result, budget int, seed int64) (alone, shared Entry, c map[string]uint64) {
	alone = searchMachine(img, hw, res, budget, rand.New(rand.NewSource(seed)), nil, false)
	m := obs.NewMetrics()
	shared = searchMachine(img, hw, res, budget, rand.New(rand.NewSource(seed)), m, true)
	return alone, shared, m.Stats().Counters
}

// TestSearchMachineSharedReplays: sharing replays between candidates
// the machine cannot tell apart leaves every entry of the probe matrix
// unchanged on both backends, and saves replays on seed-free traces.
func TestSearchMachineSharedReplays(t *testing.T) {
	cache := wcet.NewCache()
	for _, id := range arch.BackendIDs() {
		matrix, err := konfig.LegacyProbeMatrix(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range matrix {
			a, err := np.Point.Analyzer(cache, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, entry := range []string{kbin.EntrySyscall, kbin.EntryInterrupt, kbin.EntryPageFault, kbin.EntryUndefined} {
				res, err := a.Analyze(entry)
				if err != nil {
					t.Fatal(err)
				}
				alone, shared, c := searchBoth(a.Img, a.HW, res, 20, int64(i+1))
				if alone != shared {
					t.Errorf("%s %s %s: shared replays give\n%+v\nwant\n%+v", id, np.Name, entry, shared, alone)
				}
				if c["probe.machine_evals"] != 20 || c["probe.machine_replays"] >= 20 {
					t.Errorf("%s %s %s: %d replays for %d candidates, want fewer replays than candidates",
						id, np.Name, entry, c["probe.machine_replays"], c["probe.machine_evals"])
				}
			}
		}
	}
}

// TestSearchMachineBandTrace: a trace that reads a pollution line is
// not seed-free, and the search then replays every candidate that
// differs in its seed. Each search seed gets its own trace, whose first
// load reads the line the first candidate's footprint dirtying leaves
// in way 0 of L1D set 0 (the second load, to the same set, keeps it
// from being flipped out of the band), so only that candidate's
// pollution seed hits.
func TestSearchMachineBandTrace(t *testing.T) {
	l1d := arch.ARM1136.L1D
	tagShift := bits.TrailingZeros(uint(l1d.LineBytes)) + bits.TrailingZeros(uint(l1d.Sets()))
	img, hw := kimage.New(), arch.Config{}
	for seed := int64(1); seed <= 8; seed++ {
		s0 := uint32(rand.New(rand.NewSource(seed)).Int63()) // the first candidate's seed
		band := (0x40000 | (s0^0x6666)&0xFFFF) << tagShift   // PrimeReplay's L1D footprint seed
		trace := []*kimage.Block{{
			Name: "band",
			Addr: 0x1000,
			Instrs: []kimage.Instr{
				{Class: arch.Load, Data: kimage.DataRef{Base: band}},
				{Class: arch.Load, Data: kimage.DataRef{Base: 1 << tagShift}},
			},
		}}
		r := kimage.Compile(trace)
		if machine.New(hw).SeedFree(r) {
			t.Fatalf("seed %d: SeedFree holds for a trace that reads a pollution line", seed)
		}
		cycles := func(spec machine.PrimeSpec) uint64 {
			m := machine.New(hw)
			m.PrimeReplay(r, spec)
			return m.RunReplay(r)
		}
		first := machine.PrimeSpec{Seed: s0, Footprint: true, Mistrain: true}
		other := first
		other.Seed++
		if cycles(first) >= cycles(other) {
			t.Fatalf("seed %d: first candidate %d cycles, reseeded %d: the band load does not hit", seed, cycles(first), cycles(other))
		}
		alone, shared, _ := searchBoth(img, hw, &wcet.Result{Trace: trace, Cycles: 1 << 20}, 40, seed)
		if alone != shared {
			t.Errorf("seed %d: shared replays give\n%+v\nwant\n%+v", seed, shared, alone)
		}
	}
}
