package konfig

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"verikern/internal/kbin"
	"verikern/internal/kimage"
	"verikern/internal/obs"
	"verikern/internal/soak"
	"verikern/internal/wcet"
)

// Space describes a sub-lattice to sweep: the backend and, per varied
// key, the raw values to cross. Unvaried keys stay at DefaultPoint;
// infeasible combinations are dropped by the rule engine, so a Space
// may freely cross keys whose product contains impossible corners
// (e.g. both preemption sites × the lazy scheduler).
type Space struct {
	// Arch is the backend id the space sweeps.
	Arch string
	// Vary maps key name to the raw values to enumerate, in the order
	// given. Enumeration crosses the keys in sorted name order, so a
	// Space's point order — and everything derived from it — is
	// deterministic.
	Vary map[string][]string
}

// DefaultSpace is the standard sweep sub-lattice on a backend: the
// scheduler generations crossed with the preemption sites, way
// pinning, clearing granularity and the L2 and branch-predictor
// enables. Enumerate drops what the backend cannot run (rule
// hardware-supported), so the space is the same on every backend: on
// the ARM1136 it enumerates 80 feasible points, on CVA6-RT 20 —
// together the ≥50-point lattice the acceptance criteria sweep.
func DefaultSpace(archID string) (Space, error) {
	p, err := DefaultPoint(archID)
	if err != nil {
		return Space{}, err
	}
	return Space{Arch: p.Arch, Vary: map[string][]string{
		"sched.policy":         kindNames(),
		"preempt.delete":       {"false", "true"},
		"preempt.clear":        {"false", "true"},
		"cache.l1.pinned-ways": {"0", "1"},
		"clear.chunk-bytes":    {"1024", "4096"},
		"cache.l2.enabled":     {"false", "true"},
		"predictor.dynamic":    {"false", "true"},
	}}, nil
}

// Enumerate walks the space's cross product in deterministic order and
// returns the feasible points (assignments every rule accepts). An
// unknown key or unparsable value is an error; an infeasible
// combination is silently skipped — it is the rule engine's job to
// prune the lattice — and costs no diagnostic.
func Enumerate(sp Space) ([]Point, error) {
	base, err := DefaultPoint(sp.Arch)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(sp.Vary))
	for n := range sp.Vary {
		names = append(names, n)
	}
	sort.Strings(names)
	points := []Point{base}
	for _, name := range names {
		values := sp.Vary[name]
		if len(values) == 0 {
			return nil, fmt.Errorf("konfig: sweep key %s has no values", name)
		}
		next := make([]Point, 0, len(points)*len(values))
		for _, p := range points {
			for _, v := range values {
				q, err := p.Set(name, v)
				if err != nil {
					return nil, err
				}
				next = append(next, q)
			}
		}
		points = next
	}
	kept := points[:0]
	for _, p := range points {
		if feasible(p) {
			kept = append(kept, p)
		}
	}
	return kept, nil
}

// SweepResult is one swept point's row in BENCH_pareto.json: the
// konfig hash, the full key assignment, the per-entry WCET bounds, the
// composed interrupt-response bound the soak sentinel enforced, and
// the throughput axis — the simulated cycles one deterministic
// fixed-op soak consumed (lower is higher throughput).
type SweepResult struct {
	Konfig      string            `json:"konfig"`
	Keys        map[string]string `json:"keys"`
	WCET        map[string]uint64 `json:"wcet_cycles"`
	BoundCycles uint64            `json:"bound_cycles"`
	SimCycles   uint64            `json:"sim_cycles"`
	Ops         uint64            `json:"ops"`
	// ThroughputOpsPerMcyc is Ops per simulated megacycle.
	ThroughputOpsPerMcyc float64 `json:"throughput_ops_per_mcyc"`
	// Violations counts soak samples above the analysed bound; any
	// non-zero value is an analysis soundness bug.
	Violations uint64 `json:"violations"`
}

// FrontierPoint is one Pareto-optimal point of an entry's frontier.
type FrontierPoint struct {
	Konfig     string `json:"konfig"`
	WCETCycles uint64 `json:"wcet_cycles"`
	SimCycles  uint64 `json:"sim_cycles"`
}

// Frontier is one entry point's WCET-vs-throughput Pareto frontier,
// sorted by ascending WCET (and so descending throughput cost: no
// frontier point is dominated by any feasible point).
type Frontier struct {
	Entry  string          `json:"entry"`
	Points []FrontierPoint `json:"points"`
}

// ArchSweep is one backend's sweep: every feasible point's row plus
// the per-entry frontiers.
type ArchSweep struct {
	Arch      string        `json:"arch"`
	Points    []SweepResult `json:"points"`
	Frontiers []Frontier    `json:"frontiers"`
}

// ParetoBench is the BENCH_pareto.json document. For a fixed seed and
// op budget it is byte-stable across runs and worker counts: points
// are emitted in enumeration order and every row is a pure function of
// (point, seed, ops).
type ParetoBench struct {
	Seed  uint64      `json:"seed"`
	Ops   uint64      `json:"ops"`
	Archs []ArchSweep `json:"archs"`
}

// Sweep walks a space and measures every feasible point, doing each
// distinct piece of work once, keyed on the inputs it reads:
//
//   - the WCET axis: one kbin.Build per image key
//     (KbinOptions().Canonical()) and one analysis per analysis
//     projection of it (Point.AnalysisKey), through the analysis cache;
//   - the throughput axis: one deterministic single-worker soak of
//     `ops` operations at `seed` per execution identity (see
//     soakPoints), sentinel-bounded by the smallest analysed bound of
//     the points sharing it.
//
// The result is independent of `workers` (parallelism only): rows land
// in enumeration order and each is a pure function of (point, seed,
// ops), the same row a soak of the point's own campaign at its own
// bound gives. Metrics, when set, receives the analyses' stage timings
// and counters and the sweep's work counts: konfig.sweep_images,
// konfig.sweep_analyses, konfig.sweep_soaks and
// konfig.sweep_soak_reruns.
func Sweep(ctx context.Context, c *wcet.Cache, m *obs.Metrics, sp Space, seed, ops uint64, workers int) (*ArchSweep, error) {
	points, err := Enumerate(sp)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("konfig: space over %s has no feasible points", sp.Arch)
	}
	analyses, err := analyzePoints(ctx, c, m, points, workers)
	if err != nil {
		return nil, err
	}
	campaigns, err := SweepCampaigns(points, seed, ops)
	if err != nil {
		return nil, err
	}
	bounds := make([]uint64, len(points))
	for i, an := range analyses {
		bounds[i] = an.bound
	}
	rows, err := soakPoints(ctx, m, campaigns, bounds, workers)
	if err != nil {
		return nil, err
	}

	results := make([]SweepResult, len(points))
	for i, p := range points {
		an, r := analyses[i], rows[i]
		results[i] = SweepResult{
			Konfig:               campaigns[i].ConfigKey,
			Keys:                 p.Assignments(),
			WCET:                 an.wcet,
			BoundCycles:          an.bound,
			SimCycles:            r.SimCycles,
			Ops:                  r.Ops,
			ThroughputOpsPerMcyc: float64(r.Ops) * 1e6 / float64(r.SimCycles),
			Violations:           r.Violations,
		}
	}
	sw := &ArchSweep{Arch: points[0].Arch, Points: results}
	for _, entry := range kbin.Entries {
		sw.Frontiers = append(sw.Frontiers, paretoFrontier(entry, results))
	}
	return sw, nil
}

// analysis is one analysis projection's shared result.
type analysis struct {
	wcet  map[string]uint64
	bound uint64
}

// analyze computes the per-entry WCET bounds and the composed
// interrupt-response bound under one analyser. The sweep replays no
// worst-case path, so none is built.
func analyze(ctx context.Context, a *wcet.Analyzer) (*analysis, error) {
	out := &analysis{wcet: make(map[string]uint64, len(kbin.Entries))}
	for _, entry := range kbin.Entries {
		cycles, err := a.Bound(ctx, entry)
		if err != nil {
			return nil, fmt.Errorf("analyzing %s: %w", entry, err)
		}
		out.wcet[entry] = cycles
	}
	out.bound = soak.ResponseBound(out.wcet[kbin.EntrySyscall], out.wcet[kbin.EntryInterrupt], a.HW)
	return out, nil
}

// analyzePoints returns every point's analysis. Points differing only
// in keys that project out (scheduler flavour within a generation,
// clearing granularity, ...) share one analysis, and the projections
// of one image (L2 and predictor on one kernel build) share one built
// image: an image is immutable once linked, so analysers may read it
// concurrently, and its fingerprint is hashed once.
func analyzePoints(ctx context.Context, c *wcet.Cache, m *obs.Metrics, points []Point, workers int) ([]*analysis, error) {
	projOf, projs := groupBy(len(points), func(i int) string { return points[i].AnalysisKey() })
	imageOf, images := groupBy(len(projs), func(pi int) string { return points[projs[pi][0]].KbinOptions().Canonical() })

	type built struct {
		img  *kimage.Image
		cons []wcet.UserConstraint
	}
	imgs := make([]built, len(images))
	err := runIndexed(ctx, len(images), workers, func(ii int) error {
		p := points[projs[images[ii][0]][0]]
		img, cons, err := kbin.Build(p.KbinOptions())
		if err != nil {
			return fmt.Errorf("konfig: building image for %s: %w", p.Hash(), err)
		}
		m.Add("konfig.sweep_images", 1)
		imgs[ii] = built{img, cons}
		return nil
	})
	if err != nil {
		return nil, err
	}

	byProj := make([]*analysis, len(projs))
	err = runIndexed(ctx, len(projs), workers, func(pi int) error {
		p, im := points[projs[pi][0]], imgs[imageOf[pi]]
		hw, err := p.HardwareFor(im.img)
		if err != nil {
			return fmt.Errorf("konfig: hardware for %s: %w", p.Hash(), err)
		}
		an, err := analyze(ctx, newAnalyzer(im.img, im.cons, hw, c, m))
		if err != nil {
			return fmt.Errorf("konfig: %s: %w", p.Hash(), err)
		}
		m.Add("konfig.sweep_analyses", 1)
		byProj[pi] = an
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*analysis, len(points))
	for i, pi := range projOf {
		out[i] = byProj[pi]
	}
	return out, nil
}

// soakRow is the throughput axis of one swept point: what its soak
// ran and how many samples exceeded the point's bound.
type soakRow struct {
	SimCycles, Ops, Violations uint64
}

// executionIdentity is the part of a stamped campaign the soak's run
// reads: the campaign with its stamp (ConfigKey), the bound's hardware
// selector (Pinned) and the bound itself cleared. Only the sentinel's
// verdicts and the capture and snapshot stamps read those three, so
// campaigns with one identity run the same operations for the same
// simulated cycles.
func executionIdentity(cfg soak.Config) soak.Config {
	cfg.ConfigKey, cfg.Pinned, cfg.BoundCycles = "", false, 0
	return cfg
}

// soakPoints returns the row of each stamped campaign soaked at its own
// bound (bounds[i] for campaigns[i], each non-zero), running one soak
// per execution identity: the member with the smallest bound, as its
// own campaign. Every sample of that run is at most its bound, so at
// most every member's; if the run sees no violation, each member's row
// is the run's with no violations. Otherwise every other member is
// re-run at its own bound, so each count stays the point's own.
func soakPoints(ctx context.Context, m *obs.Metrics, campaigns []soak.Config, bounds []uint64, workers int) ([]soakRow, error) {
	_, groups := groupBy(len(campaigns), func(i int) soak.Config { return executionIdentity(campaigns[i]) })
	rows := make([]soakRow, len(campaigns))
	run := func(i int) (soakRow, error) {
		cfg := campaigns[i]
		cfg.BoundCycles = bounds[i]
		rep, err := soak.Run(ctx, cfg)
		if err != nil {
			return soakRow{}, fmt.Errorf("konfig: soaking %s: %w", cfg.ConfigKey, err)
		}
		s := rep.Snapshot
		return soakRow{SimCycles: s.SimCycles, Ops: s.Ops, Violations: s.Bound.Violations}, nil
	}
	err := runIndexed(ctx, len(groups), workers, func(gi int) error {
		members := groups[gi]
		lead := members[0]
		for _, i := range members {
			if bounds[i] < bounds[lead] {
				lead = i
			}
		}
		row, err := run(lead)
		if err != nil {
			return err
		}
		m.Add("konfig.sweep_soaks", 1)
		for _, i := range members {
			rows[i] = row
		}
		if row.Violations == 0 {
			return nil
		}
		for _, i := range members {
			if i == lead {
				continue
			}
			if rows[i], err = run(i); err != nil {
				return err
			}
			m.Add("konfig.sweep_soak_reruns", 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SweepCampaigns is the throughput-axis soak of each point, in order:
// one worker, `ops` operations at `seed`, labelled "sweep" and stamped
// with the point's hash. Sweep fills in each campaign's analysed bound
// and runs one campaign per execution identity, standing for the rest.
func SweepCampaigns(points []Point, seed, ops uint64) ([]soak.Config, error) {
	out := make([]soak.Config, len(points))
	for i, p := range points {
		cfg, err := NamedPoint{Name: "sweep", Point: p}.Campaign(seed, ops, 1)
		if err != nil {
			return nil, err
		}
		out[i] = cfg
	}
	return out, nil
}

// paretoFrontier extracts the entry's non-dominated set, minimising
// (WCET, SimCycles): point A dominates B when it is no worse on both
// axes and strictly better on at least one.
func paretoFrontier(entry string, results []SweepResult) Frontier {
	dominated := func(b SweepResult) bool {
		bw, bs := b.WCET[entry], b.SimCycles
		for _, a := range results {
			aw, as := a.WCET[entry], a.SimCycles
			if aw <= bw && as <= bs && (aw < bw || as < bs) {
				return true
			}
		}
		return false
	}
	f := Frontier{Entry: entry}
	for _, r := range results {
		if !dominated(r) {
			f.Points = append(f.Points, FrontierPoint{Konfig: r.Konfig, WCETCycles: r.WCET[entry], SimCycles: r.SimCycles})
		}
	}
	sort.Slice(f.Points, func(i, j int) bool {
		a, b := f.Points[i], f.Points[j]
		if a.WCETCycles != b.WCETCycles {
			return a.WCETCycles < b.WCETCycles
		}
		if a.SimCycles != b.SimCycles {
			return a.SimCycles < b.SimCycles
		}
		return a.Konfig < b.Konfig
	})
	return f
}

// groupBy partitions the indices 0..n-1 by key: groups[g] lists group
// g's members in index order, groups are numbered in order of first
// appearance, and groupOf[i] is item i's group.
func groupBy[K comparable](n int, key func(int) K) (groupOf []int, groups [][]int) {
	groupOf = make([]int, n)
	index := make(map[K]int)
	for i := 0; i < n; i++ {
		k := key(i)
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
		groupOf[i] = g
	}
	return groupOf, groups
}

// runIndexed runs f(0..n-1) over a bounded worker pool and returns the
// first error (by index) once all workers have drained.
func runIndexed(ctx context.Context, n, workers int, f func(i int) error) error {
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
