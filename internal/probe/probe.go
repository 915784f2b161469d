// Package probe is the adversarial worst-case prober: where the soak
// observatory samples latency passively under randomized load, the
// probe searches for it. Per kernel entry point it primes the machine
// into its costliest reachable state (targeted footprint eviction,
// replacement-phase advance, predictor mistraining — machine.Prime)
// and hill-climbs the priming knobs; per kernel configuration it runs
// a directed search over workload genomes — operation kind, IRQ raise
// phase within the op, endpoint queue depth and badge mix, retype size
// and count (the chunk phase), cap-decode depth, ready-queue thinning
// — reusing the soak's op drivers as the mutation vocabulary.
//
// The output is a bound-tightness report: per entry, the observed
// maximum the search reached against the computed WCET bound, as the
// ratio observed/bound. The probe is the live adversary of the
// paper's §5.4 measurement methodology: a sound analysis must keep
// every observation under its bound (a violation here is a bug in the
// analysis or the model — the acceptance tests fail on it), and a
// tight analysis keeps the ratio high.
//
// Probes are seeded and deterministic: the same Config reproduces the
// same search trajectory, the same observed maxima and byte-identical
// reports, so tightness artifacts regression-test like goldens.
package probe

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/kimage"
	"verikern/internal/konfig"
	"verikern/internal/machine"
	"verikern/internal/measure"
	"verikern/internal/obs"
	"verikern/internal/soak"
	"verikern/internal/wcet"
)

// Config parameterises one probe campaign over a single kernel
// configuration.
type Config struct {
	// Label names the configuration (e.g. "benno+preempt+pinned").
	Label string
	// Point is the configuration lattice point under probe: the image
	// the bounds are analysed on, the hardware the machine layer
	// measures, and the kernel the genome search drives all derive
	// from it. Run rejects an infeasible point. The search's rng
	// streams mix the backend id (identity for ARM1136, so historical
	// trajectories are unchanged).
	Point konfig.Point
	// Seed makes the search reproducible.
	Seed uint64
	// Budget is the total evaluation budget: half is split evenly
	// across the four machine-layer entry points, half drives the
	// kernel-layer genome search. Default 160.
	Budget int
	// Cache, when set, shares CFGs and whole analysis Results with the
	// rest of the toolchain (the bounds here are the same analyses
	// the tables and the soak sentinel use).
	Cache *wcet.Cache
	// Metrics, when set, receives probe counters (probe.evals,
	// probe.improvements, ...) alongside the analysis pipeline's.
	Metrics *obs.Metrics
}

func (c Config) withDefaults() Config {
	if c.Label == "" {
		c.Label = "probe"
	}
	if c.Budget <= 0 {
		c.Budget = 160
	}
	return c
}

// maxCaptures caps the flight-recorder dumps the kernel-layer runner
// keeps (one fires on every new observed maximum).
const maxCaptures = 8

// Entry is one row of the tightness report: the directed search's
// best observation against the computed bound for one entry point.
type Entry struct {
	// Name is the kernel entry point ("handleSyscall", ...) or
	// "irq-response" for the composed kernel-layer bound.
	Name string `json:"name"`
	// ObservedMax is the worst latency/cost the search reached.
	ObservedMax uint64 `json:"observed_max"`
	// BoundCycles is the computed WCET bound for the entry.
	BoundCycles uint64 `json:"computed_bound"`
	// Tightness is ObservedMax/BoundCycles, rounded to 4 decimals.
	// Soundness demands ≤ 1; higher is a tighter analysis.
	Tightness float64 `json:"tightness"`
	// Evals is how many candidate evaluations the entry consumed.
	Evals int `json:"evals"`
	// Improvements counts strict fitness improvements accepted.
	Improvements int `json:"improvements"`
	// Best describes the winning candidate (prime spec or genome).
	Best string `json:"best"`
}

// Report is one configuration's probe outcome.
type Report struct {
	Label   string  `json:"label"`
	Arch    string  `json:"arch"`
	Pinned  bool    `json:"pinned"`
	Seed    uint64  `json:"seed"`
	Budget  int     `json:"budget"`
	Entries []Entry `json:"entries"`
	// Violations counts observations exceeding their bound — zero
	// for a sound analysis; the acceptance gate fails otherwise.
	Violations uint64 `json:"violations"`

	// Status is the kernel-layer sentinel's standing verdict.
	Status obs.BoundStatus `json:"-"`
	// Captures are the flight-recorder dumps the kernel-layer
	// search fired on each new observed maximum.
	Captures []soak.Capture `json:"-"`
}

// tightness rounds observed/bound to 4 decimals (0 when unbounded).
func tightness(observed, bound uint64) float64 {
	if bound == 0 {
		return 0
	}
	return math.Round(float64(observed)/float64(bound)*1e4) / 1e4
}

// Run executes one probe campaign: analyses the configuration's
// kernel image for per-entry bounds, hill-climbs machine priming per
// entry point, then runs the genome search against a live kernel for
// the composed interrupt-response bound.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}

	// The kernel-layer runner's campaign; Campaign rejects an
	// infeasible point, so everything below runs a checked one.
	campaign, err := konfig.NamedPoint{Name: cfg.Label, Point: cfg.Point}.Campaign(cfg.Seed, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", cfg.Label, err)
	}
	backend := arch.MustLookup(campaign.Arch)
	a, err := cfg.Point.Analyzer(cfg.Cache, cfg.Metrics)
	if err != nil {
		return nil, fmt.Errorf("probe %s: building image: %w", cfg.Label, err)
	}
	img, hw := a.Img, a.HW

	// The machine-layer searches draw from a backend-mixed root so a
	// two-backend probe matrix explores distinct priming trajectories;
	// identity for ARM1136 keeps historical reports byte-identical.
	seedRoot := measure.ArchSeed(cfg.Seed, backend)

	rep := &Report{Label: cfg.Label, Arch: backend.ID, Pinned: cfg.Point.Pinned(), Seed: cfg.Seed, Budget: cfg.Budget}

	// Budget split: half across the four machine-layer entries, half
	// for the kernel-layer genome search.
	perEntry := cfg.Budget / 8
	if perEntry < 1 {
		perEntry = 1
	}
	kernelBudget := cfg.Budget - 4*perEntry
	if kernelBudget < 1 {
		kernelBudget = 1
	}

	var sysBound, irqBound uint64
	for i, name := range kbin.Entries {
		res, err := a.AnalyzeContext(ctx, name)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %s bound: %w", cfg.Label, name, err)
		}
		switch name {
		case kbin.EntrySyscall:
			sysBound = res.Cycles
		case kbin.EntryInterrupt:
			irqBound = res.Cycles
		}
		rng := rand.New(rand.NewSource(int64(seedRoot) ^ int64(i+1)*0x9E3779B9))
		e := searchMachine(img, hw, res, perEntry, rng, cfg.Metrics, true)
		e.Name = name
		if e.ObservedMax > e.BoundCycles {
			rep.Violations++
		}
		rep.Entries = append(rep.Entries, e)
	}

	// The kernel-layer bound composes as the soak sentinel's does.
	kernelBound := soak.ResponseBound(sysBound, irqBound, hw)
	campaign.BoundCycles = kernelBound
	ke, status, caps, err := searchKernel(campaign, cfg.Metrics, seedRoot, kernelBudget)
	if err != nil {
		return nil, fmt.Errorf("probe %s: kernel-layer search: %w", cfg.Label, err)
	}
	rep.Violations += status.Violations
	rep.Status = status
	rep.Captures = caps
	rep.Entries = append(rep.Entries, ke)
	return rep, nil
}

// searchMachine hill-climbs the adversarial priming knobs for one
// analysed entry point: each candidate is a machine.PrimeSpec, its
// fitness one primed replay of the entry's reconstructed worst-case
// trace. The trace is compiled once, so its footprint is computed once
// for every candidate, and one loaded machine serves them all:
// PrimeReplay starts with a full pollution, which leaves a used machine
// timing a replay exactly as a fresh one would.
//
// With share set, candidates the machine cannot tell apart share one
// replay: a spec already tried times as it did, and so does every spec
// that differs from a tried one only in its seed, since the seed only
// names lines no access hits (machine.PrimeSpec). The Entry is the
// same either way; probe.machine_evals counts candidates,
// probe.machine_replays the replays actually run.
func searchMachine(img *kimage.Image, hw arch.Config, res *wcet.Result, budget int, rng *rand.Rand, m *obs.Metrics, share bool) Entry {
	r := kimage.Compile(res.Trace)
	mach := machine.New(hw)
	mach.LoadImage(img)
	var times map[machine.PrimeSpec]uint64
	if share {
		times = make(map[machine.PrimeSpec]uint64, budget)
	}
	replay := func(spec machine.PrimeSpec) uint64 {
		m.Add("probe.evals", 1)
		m.Add("probe.machine_evals", 1)
		key := spec
		key.Seed = 0
		if c, ok := times[key]; ok {
			return c
		}
		mach.PrimeReplay(r, spec)
		m.Add("probe.machine_replays", 1)
		c := mach.RunReplay(r)
		if share {
			times[key] = c
		}
		return c
	}
	best := machine.PrimeSpec{Seed: uint32(rng.Int63()), Footprint: true, Mistrain: true}
	bestFit := replay(best)
	evals, improvements := 1, 0
	for evals < budget {
		cand := mutateSpec(best, rng)
		fit := replay(cand)
		evals++
		if fit >= bestFit {
			if fit > bestFit {
				improvements++
				m.Add("probe.improvements", 1)
			}
			bestFit, best = fit, cand
		}
	}
	return Entry{
		ObservedMax:  bestFit,
		BoundCycles:  res.Cycles,
		Tightness:    tightness(bestFit, res.Cycles),
		Evals:        evals,
		Improvements: improvements,
		Best: fmt.Sprintf("prime{seed=%d footprint=%v advance=%d mistrain=%v}",
			best.Seed, best.Footprint, best.ReplacementAdvance, best.Mistrain),
	}
}

// mutateSpec perturbs one priming knob.
func mutateSpec(s machine.PrimeSpec, rng *rand.Rand) machine.PrimeSpec {
	n := s
	switch rng.Intn(4) {
	case 0:
		n.Seed = uint32(rng.Int63())
	case 1:
		n.Footprint = !n.Footprint
	case 2:
		n.ReplacementAdvance = rng.Intn(16)
	case 3:
		n.Mistrain = !n.Mistrain
	}
	return n
}
