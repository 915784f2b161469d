// Package measure reproduces the paper's observed-worst-case
// methodology (§5.4): replay a worst-case path on the simulated
// hardware with caches polluted by dirty lines and report its time —
// the "observed" column of Table 2 and the baseline for the
// overestimation plots of Figures 8 and 9.
//
// The paper takes the worst of many runs from differently polluted
// caches. In this simulator the pollution lines are foreign: no
// address hits one (cache.Pollute), so a seed only renames lines no
// run reaches, every run times alike, and one polluted replay is the
// campaign's worst.
package measure

import (
	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/machine"
)

// Observation summarises a measurement campaign for one path.
type Observation struct {
	// Max is the worst observed execution time in cycles.
	Max uint64
	// Runs is the number of polluted executions the observation
	// stands for; they all take Max cycles.
	Runs int
}

// Micros returns the worst observation in microseconds on the 532 MHz
// clock.
func (o Observation) Micros() float64 { return arch.ARM1136.CyclesToMicros(o.Max) }

// SplitMix64 is one step of the splitmix64 generator: add its
// increment γ = 0x9E3779B97F4A7C15, then apply its finaliser. One pass
// is a full-avalanche permutation of the 64-bit input, which makes it
// the repository's one seed mixer: PolluteSeed, CampaignSeed, the soak
// workers' sub-seeds and the fleet's backoff jitter all derive from it.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// PolluteSeed derives the cache-pollution seed for one run of a
// measurement campaign from the campaign's base seed. The derivation
// is a splitmix64 finaliser over (base, run), so distinct campaigns
// draw from disjoint, well-mixed seed sequences. Every seed times a
// polluted replay alike (Observe): a seed only names the lines. Never
// returns zero.
func PolluteSeed(base uint64, run int) uint32 {
	x := SplitMix64(base + uint64(run)*0x9E3779B97F4A7C15)
	s := uint32(x ^ x>>32)
	if s == 0 {
		s = 1
	}
	return s
}

// CampaignSeed derives a campaign base seed from a root seed and a
// campaign label. Like PolluteSeed it is a splitmix64 finaliser, taken
// over (root, FNV-1a(label)): every named campaign sharing one root —
// the per-configuration series of a benchmark sweep, say — draws from
// its own well-mixed seed space, and the same (root, label) pair always
// derives the same base, which is what makes seeded campaigns
// reproducible run-to-run. The derivation chain is fixed:
//
//	root ──CampaignSeed(label)──▶ base ──PolluteSeed(run)──▶ per-run seed
//
// (soak workers interpose their own splitmix sub-seed step between root
// and base; see soak.Config.Seed). Never returns zero.
func CampaignSeed(root uint64, label string) uint64 {
	h := uint64(0xCBF29CE484222325) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001B3
	}
	x := SplitMix64(root ^ h)
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	return x
}

// ArchSeed mixes a hardware backend's identity into a root seed. The
// default ARM1136 backend is the identity — historical seed labels,
// pinned seed-derivation tests and recorded campaigns stay bit-exact —
// while every other backend remaps the root through CampaignSeed over
// its id. A two-backend sweep sharing one seed label therefore drives
// each timing model with a distinct op/pollution stream instead of
// silently replaying the same stream under different clocks. Never
// returns zero for non-default backends (CampaignSeed's guarantee).
func ArchSeed(root uint64, b *arch.Backend) uint64 {
	if b == nil || b.ID == arch.ARM1136ID {
		return root
	}
	return CampaignSeed(root, "arch/"+b.ID)
}

// Observe replays trace once on a machine configured with hw, from
// polluted caches, and reports it as a campaign of runs executions
// (at least one): every pollution seed times the replay alike, so one
// replay is each run's time. The image's pin set is installed first
// when the configuration locks L1 ways.
func Observe(img *kimage.Image, hw arch.Config, trace []*kimage.Block, runs int) Observation {
	return ObserveReplay(img, hw, kimage.Compile(trace), runs)
}

// ObserveReplay is Observe of an already compiled trace, replayed with
// Machine.RunReplay. It only reads r, so one Replay may serve several
// campaigns at once.
func ObserveReplay(img *kimage.Image, hw arch.Config, r *kimage.Replay, runs int) Observation {
	m := machine.New(hw)
	m.LoadImage(img)
	m.Pollute(0)
	return Observation{Max: m.RunReplay(r), Runs: max(runs, 1)}
}

// Ratio returns computed/observed, the pessimism ratio reported in
// Table 2.
func Ratio(computed uint64, observed uint64) float64 {
	if observed == 0 {
		return 0
	}
	return float64(computed) / float64(observed)
}

// OverestimationPercent returns the percentage by which computed
// exceeds observed, as plotted in Figure 8.
func OverestimationPercent(computed, observed uint64) float64 {
	if observed == 0 {
		return 0
	}
	return 100 * (float64(computed) - float64(observed)) / float64(observed)
}
