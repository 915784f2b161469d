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
			for i, entry := range kbin.Entries {
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

// TestSearchMachineBandTrace: each search seed's trace loads from the
// address whose tag the first candidate's footprint dirtying once left
// in way 0 of L1D set 0, when pollution lines took tags from a band
// that addresses reach, and then hit where every reseeded candidate
// missed. Pollution lines are foreign now, so the trace times alike
// under every seed, and sharing replays between candidates that differ
// only in their seed leaves the search's Entry unchanged.
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
		cycles := func(spec machine.PrimeSpec) uint64 {
			m := machine.New(hw)
			m.PrimeReplay(r, spec)
			return m.RunReplay(r)
		}
		first := machine.PrimeSpec{Seed: s0, Footprint: true, Mistrain: true}
		for _, d := range []uint32{1, 0x6666, 1 << 16} {
			other := first
			other.Seed ^= d
			if a, b := cycles(first), cycles(other); a != b {
				t.Fatalf("seed %d: first candidate %d cycles, reseeded (^%#x) %d", seed, a, d, b)
			}
		}
		alone, shared, _ := searchBoth(img, hw, &wcet.Result{Trace: trace, Cycles: 1 << 20}, 40, seed)
		if alone != shared {
			t.Errorf("seed %d: shared replays give\n%+v\nwant\n%+v", seed, shared, alone)
		}
	}
}
