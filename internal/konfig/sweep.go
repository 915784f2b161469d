package konfig

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"verikern/internal/kbin"
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
// prune the lattice.
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
	feasible := points[:0]
	for _, p := range points {
		if len(Validate(p)) == 0 {
			feasible = append(feasible, p)
		}
	}
	return feasible, nil
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

// analysis is one analysis projection's shared result.
type analysis struct {
	wcet  map[string]uint64
	bound uint64
}

// analyze computes the per-entry WCET bounds and the composed
// interrupt-response bound for one point, through the shared analysis
// cache: points differing only in keys that project out (scheduler
// flavour within a generation, clearing granularity, ...) reuse whole
// cached bounds, and points sharing an image reuse its CFGs. The sweep
// replays no worst-case path, so none is built.
func analyze(ctx context.Context, c *wcet.Cache, m *obs.Metrics, p Point) (*analysis, error) {
	a, err := p.Analyzer(c, m)
	if err != nil {
		return nil, fmt.Errorf("konfig: building image for %s: %w", p.Hash(), err)
	}
	out := &analysis{wcet: make(map[string]uint64, len(kbin.Entries))}
	for _, entry := range kbin.Entries {
		cycles, err := a.Bound(ctx, entry)
		if err != nil {
			return nil, fmt.Errorf("konfig: analyzing %s for %s: %w", entry, p.Hash(), err)
		}
		out.wcet[entry] = cycles
	}
	out.bound = soak.ResponseBound(out.wcet[kbin.EntrySyscall], out.wcet[kbin.EntryInterrupt], a.HW)
	return out, nil
}

// Sweep walks a space and measures every feasible point: the WCET axis
// through the analysis cache (one analysis per distinct
// analysis projection — see Point.AnalysisKey) and the throughput axis
// with one deterministic single-worker soak of `ops` operations at
// `seed`, sentinel-bounded by the point's own analysed bound. The
// result is independent of `workers` (parallelism only): rows land in
// enumeration order and each is a pure function of (point, seed, ops).
// Metrics, when set, receives the analyses' stage timings and
// counters.
func Sweep(ctx context.Context, c *wcet.Cache, m *obs.Metrics, sp Space, seed, ops uint64, workers int) (*ArchSweep, error) {
	points, err := Enumerate(sp)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("konfig: space over %s has no feasible points", sp.Arch)
	}

	// Phase 1: one analysis per distinct projection, in parallel.
	keyOf := make([]string, len(points))
	grouped := make(map[string][]int)
	var order []string
	for i, p := range points {
		k := p.AnalysisKey()
		keyOf[i] = k
		if _, seen := grouped[k]; !seen {
			order = append(order, k)
		}
		grouped[k] = append(grouped[k], i)
	}
	analyses := make(map[string]*analysis, len(order))
	var mu sync.Mutex
	err = runIndexed(ctx, len(order), workers, func(gi int) error {
		k := order[gi]
		a, err := analyze(ctx, c, m, points[grouped[k][0]])
		if err != nil {
			return err
		}
		mu.Lock()
		analyses[k] = a
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: one deterministic soak per point, in parallel.
	campaigns, err := SweepCampaigns(points, seed, ops)
	if err != nil {
		return nil, err
	}
	results := make([]SweepResult, len(points))
	err = runIndexed(ctx, len(points), workers, func(i int) error {
		p := points[i]
		an := analyses[keyOf[i]]
		cfg := campaigns[i]
		cfg.BoundCycles = an.bound
		rep, err := soak.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("konfig: soaking %s: %w", p.Hash(), err)
		}
		snap := rep.Snapshot
		results[i] = SweepResult{
			Konfig:               p.Hash(),
			Keys:                 p.Assignments(),
			WCET:                 an.wcet,
			BoundCycles:          an.bound,
			SimCycles:            snap.SimCycles,
			Ops:                  snap.Ops,
			ThroughputOpsPerMcyc: float64(snap.Ops) * 1e6 / float64(snap.SimCycles),
			Violations:           snap.Bound.Violations,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sw := &ArchSweep{Arch: points[0].Arch, Points: results}
	for _, entry := range kbin.Entries {
		sw.Frontiers = append(sw.Frontiers, paretoFrontier(entry, results))
	}
	return sw, nil
}

// SweepCampaigns is the throughput-axis soak Sweep runs for each point,
// in order: one worker, `ops` operations at `seed`, labelled "sweep"
// and stamped with the point's hash. Sweep fills in each campaign's
// analysed bound.
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
