// Package measure reproduces the paper's observed-worst-case
// methodology (§5.4): replay a worst-case path on the simulated
// hardware with caches polluted by dirty lines, repeat over many
// adversarial initial states, and report the maximum — the "observed"
// column of Table 2 and the baseline for the overestimation plots of
// Figures 8 and 9.
package measure

import (
	"fmt"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/machine"
	"verikern/internal/obs"
)

// Observation summarises a measurement campaign for one path.
type Observation struct {
	// Max is the worst observed execution time in cycles.
	Max uint64
	// Min is the best observed time (a warm-cache floor).
	Min uint64
	// Mean is the average across runs.
	Mean float64
	// Runs is the number of measured executions.
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
// is a splitmix64 finaliser over (base, run), so distinct campaigns —
// e.g. per-config soak workers feeding off one observatory seed —
// draw from disjoint, well-mixed pollution sequences instead of the
// linearly reused seeds campaigns shared before. Never returns zero.
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

// Observe replays trace on a machine configured with hw, runs times,
// each from a freshly polluted cache state (a different pollution seed
// per run), and reports the distribution. The image's pin set is
// installed first when the configuration locks L1 ways. Observe is
// ObserveSeeded with base seed 0 — the canonical campaign of the
// table/figure drivers.
func Observe(img *kimage.Image, hw arch.Config, trace []*kimage.Block, runs int) Observation {
	return ObserveSeeded(img, hw, trace, runs, 0)
}

// ObserveSeeded is Observe under an explicit campaign base seed: run i
// pollutes with PolluteSeed(base, i), so campaigns are reproducible
// for a fixed base and composable — two campaigns with different bases
// never reuse a pollution state.
func ObserveSeeded(img *kimage.Image, hw arch.Config, trace []*kimage.Block, runs int, base uint64) Observation {
	if runs <= 0 {
		runs = 1
	}
	var o Observation
	o.Runs = runs
	o.Min = ^uint64(0)
	var sum uint64
	// One machine and one compiled trace serve every run: Pollute
	// resets all state a run leaves behind except the pinned lines,
	// which never leave.
	m := machine.New(hw)
	m.LoadImage(img)
	r := kimage.Compile(trace)
	for i := 0; i < runs; i++ {
		m.Pollute(PolluteSeed(base, i))
		c := m.RunReplay(r)
		if c > o.Max {
			o.Max = c
		}
		if c < o.Min {
			o.Min = c
		}
		sum += c
	}
	o.Mean = float64(sum) / float64(runs)
	return o
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

// Summary is a latency distribution digest, for reporting measured
// interrupt-response latencies. It is backed by obs.Histogram, so its
// quantiles share the observatory's conservative semantics: P50/P90/
// P99 are upper bounds that never understate the true quantile (capped
// at the exact observed maximum). Count, Min, Max and Mean are exact.
type Summary struct {
	Count         int
	Min, Max      uint64
	P50, P90, P99 uint64
	Mean          float64
}

// SummarizeHistogram digests a tracer or soak-pool histogram. An empty
// histogram yields a zero Summary.
func SummarizeHistogram(h *obs.Histogram) Summary {
	if h.Count() == 0 {
		return Summary{}
	}
	return Summary{
		Count: int(h.Count()),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Mean:  h.Mean(),
	}
}

// Text renders the digest, with the maximum also in microseconds on
// the backend's clock.
func (s Summary) Text(b *arch.Backend) string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d min=%d p50=%d p90=%d p99=%d max=%d cycles (max %.1f µs)",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.Max, b.CyclesToMicros(s.Max))
}
