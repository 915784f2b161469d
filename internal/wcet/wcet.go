// Package wcet computes safe upper bounds on the worst-case execution
// time of kernel entry points, reproducing the paper's analysis
// pipeline (§5): whole-program CFG with virtual inlining, conservative
// cache classification (each cache treated as direct-mapped of one-way
// size), constant worst-case branch costs, IPET encoding to an integer
// linear program, user constraints for infeasible-path exclusion, and
// reconstruction of the worst-case path as a concrete trace that the
// machine simulator can replay.
package wcet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"verikern/internal/arch"
	"verikern/internal/cfg"
	"verikern/internal/kimage"
	"verikern/internal/obs"
	"verikern/internal/passes"
)

// ConstraintKind selects one of the three user-constraint forms of
// §5.2.
type ConstraintKind int

// User-constraint kinds.
const (
	// Conflicts: blocks A and B are mutually exclusive within one
	// invocation of function In.
	Conflicts ConstraintKind = iota
	// Consistent: blocks A and B execute the same number of times
	// within one invocation of function In.
	Consistent
	// Executes: block A executes at most N times in total across
	// all contexts.
	Executes
)

// UserConstraint is a manually supplied infeasible-path constraint
// (§5.2). A and B name blocks; In names the function whose invocations
// scope the constraint.
type UserConstraint struct {
	Kind ConstraintKind
	// In is the scoping function for Conflicts/Consistent.
	In string
	// A and B are block names within In (B unused for Executes).
	A, B string
	// N is the total execution bound for Executes.
	N int
}

// Conflict builds an "A conflicts with B in F" constraint.
func Conflict(f, a, b string) UserConstraint {
	return UserConstraint{Kind: Conflicts, In: f, A: a, B: b}
}

// Consist builds an "A is consistent with B in F" constraint.
func Consist(f, a, b string) UserConstraint {
	return UserConstraint{Kind: Consistent, In: f, A: a, B: b}
}

// ExecutesAtMost builds an "A executes at most N times" constraint.
// The block is named function-qualified since it applies across all
// contexts.
func ExecutesAtMost(f, a string, n int) UserConstraint {
	return UserConstraint{Kind: Executes, In: f, A: a, N: n}
}

// Obligation renders the constraint as the proof obligation the paper
// proposes handing to a verification engineer (§5.2: "it would be
// possible to transform these extra constraints into proof
// obligations"), removing the risk that a hand-written constraint
// unsoundly excludes a feasible path.
func (c UserConstraint) Obligation() string {
	switch c.Kind {
	case Conflicts:
		return fmt.Sprintf("PROVE: within any single invocation of %s, basic blocks %q and %q are mutually exclusive",
			c.In, c.A, c.B)
	case Consistent:
		return fmt.Sprintf("PROVE: within any single invocation of %s, basic blocks %q and %q execute equally often",
			c.In, c.A, c.B)
	case Executes:
		return fmt.Sprintf("PROVE: across any kernel entry, basic block %s.%q executes at most %d times",
			c.In, c.A, c.N)
	default:
		return "PROVE: (unknown constraint form)"
	}
}

// Result is the outcome of one entry-point analysis.
type Result struct {
	// Entry is the analysed entry function.
	Entry string
	// Cycles is the computed WCET upper bound.
	Cycles uint64
	// Micros is Cycles on the 532 MHz clock.
	Micros float64
	// Graph is the inlined whole-program CFG.
	Graph *cfg.Graph
	// NodeCost holds the per-node worst-case cost used in the
	// objective.
	NodeCost []uint64
	// Counts holds the ILP's per-node execution counts on the
	// worst-case path.
	Counts []int64
	// Trace is the reconstructed worst-case path as an executable
	// block sequence.
	Trace []*kimage.Block
	// Classified reports cache-classification statistics.
	Classified ClassStats
	// LPVars and LPConstraints report the ILP problem size.
	LPVars, LPConstraints int
	// edgeCounts holds the solved per-edge flows, used for path
	// reconstruction.
	edgeCounts map[edgeKey]int64
	// loopEntryCost holds the per-loop one-off first-miss cost,
	// charged on loop-entry edges.
	loopEntryCost []uint64
	// LPText is the ILP dump (only when Analyzer.KeepLP is set).
	LPText string
	// SolveTime is the wall time spent in ILP solving, and
	// AnalysisTime the total (Chronos-equivalent) analysis time.
	SolveTime, AnalysisTime time.Duration
}

// ClassStats counts cache classifications across all inlined
// instructions.
type ClassStats struct {
	FetchHit, FetchMiss int
	// FetchFirstMiss counts fetches proven persistent in their
	// loop: one miss per loop entry instead of one per iteration.
	FetchFirstMiss    int
	DataHit, DataMiss int
	// DataFirstMiss counts loop-persistent fixed data accesses.
	DataFirstMiss int
	DataUnknown   int // striding refs, unclassifiable
}

// Analyzer configures and runs WCET analyses over one kernel image.
type Analyzer struct {
	Img *kimage.Image
	// HW is the platform configuration to analyse for.
	HW arch.Config
	// Constraints are the user-supplied infeasible-path
	// constraints, applied to every entry point they match.
	Constraints []UserConstraint
	// KeepLP stores the generated ILP in Result.LPText (the
	// CPLEX-LP-style dump the paper's toolchain fed its solver).
	KeepLP bool
	// Metrics, when set, receives per-stage wall times and pipeline
	// counters (CFG size, fixpoint sweeps, ILP dimensions, simplex
	// pivots), plus artifact-cache hit/miss counters when Cache is
	// set. It is safe to share across AnalyzeAllParallel's
	// goroutines; nil disables collection.
	Metrics *obs.Metrics
	// Cache, when set, serves and stores per-pass analysis artifacts
	// content-addressed by (image fingerprint, hardware config,
	// constraint set, pass version). Analyzers over identical inputs
	// — even distinct Analyzer or Image objects — share artifacts
	// through one cache. Cached artifacts (including whole Results)
	// are shared and must be treated as immutable. Nil disables
	// caching.
	Cache *passes.Cache
	// Workers bounds AnalyzeAllParallel's concurrency; 0 means
	// GOMAXPROCS.
	Workers int
}

// New returns an analyzer for the image under the hardware config.
func New(img *kimage.Image, hw arch.Config) *Analyzer {
	return &Analyzer{Img: img, HW: hw}
}

// AddConstraints appends user constraints.
func (a *Analyzer) AddConstraints(cs ...UserConstraint) {
	a.Constraints = append(a.Constraints, cs...)
}

// Analyze computes the WCET bound for one entry point.
func (a *Analyzer) Analyze(entry string) (*Result, error) {
	return a.AnalyzeContext(context.Background(), entry)
}

// AnalyzeContext computes the WCET bound for one entry point, running
// the pass pipeline (CFG → classify → IPET/solve → reconstruct) under
// the given context. Cancellation is honoured between passes. With a
// Cache set, each pass's artifact — and the assembled Result — is
// served from the cache when its content-addressed inputs match a
// previous analysis.
func (a *Analyzer) AnalyzeContext(ctx context.Context, entry string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ib, hb := a.Img.Backend(), a.HW.Backend(); ib != hb {
		return nil, fmt.Errorf("wcet: image linked for backend %s analysed under %s", ib.ID, hb.ID)
	}
	if err := a.HW.Backend().ValidateConfig(a.HW); err != nil {
		return nil, err
	}
	start := time.Now()

	var resultKey string
	if a.Cache != nil {
		resultKey = passes.KeyID("result", resultVersion, a.solveFingerprint(entry))
		if v, ok := a.Cache.Get(resultKey); ok {
			a.Metrics.Add("passcache.hits", 1)
			a.Metrics.Add("passcache.hit.result", 1)
			a.Metrics.Add("wcet.entries_cached", 1)
			return v.(*Result), nil
		}
		a.Metrics.Add("passcache.misses", 1)
	}

	pl, err := a.pipeline(entry)
	if err != nil {
		return nil, err
	}
	ac := passes.NewContext(ctx, a.Metrics, a.Cache)
	if err := pl.Run(ac); err != nil {
		return nil, err
	}

	g, _ := passes.Artifact[*cfg.Graph](ac, PassCFG)
	cls, _ := passes.Artifact[*Classification](ac, PassClassify)
	sol, _ := passes.Artifact[*Solution](ac, PassSolve)
	trace, _ := passes.Artifact[[]*kimage.Block](ac, PassReconstruct)
	if g == nil || cls == nil || sol == nil {
		return nil, fmt.Errorf("wcet: %s: pipeline produced incomplete artifacts", entry)
	}

	res := &Result{
		Entry:         entry,
		Graph:         g,
		NodeCost:      cls.NodeCost,
		Classified:    cls.Stats,
		loopEntryCost: cls.LoopEntryCost,
		Cycles:        sol.Cycles,
		Counts:        sol.Counts,
		LPVars:        sol.LPVars,
		LPConstraints: sol.LPConstraints,
		LPText:        sol.LPText,
		SolveTime:     sol.SolveTime,
		edgeCounts:    sol.edgeCountMap(),
		Trace:         trace,
	}
	res.Micros = a.HW.Backend().CyclesToMicros(res.Cycles)
	res.AnalysisTime = time.Since(start)
	a.Metrics.Add("wcet.entries_analyzed", 1)
	if resultKey != "" {
		a.Cache.Put(resultKey, res)
	}
	return res, nil
}

// Footprint returns the address footprint (instruction fetches, data
// accesses) of the result's reconstructed worst-case trace, in
// first-touch order. The adversarial probe feeds it to the machine's
// targeted cache-dirtying (cache.DirtyFootprint via machine.Prime) so
// measurement runs start with exactly the victim path's sets evicted.
func (r *Result) Footprint() (code, data []uint32) {
	return kimage.TraceFootprint(r.Trace)
}

// HotBlock is one entry of the worst-case profile: a CFG node's total
// contribution to the bound.
type HotBlock struct {
	// Key identifies the inlined node (context + function + block).
	Key string
	// Count is the node's execution count on the worst path.
	Count int64
	// Cycles is count × per-execution cost — its share of the bound.
	Cycles uint64
}

// Hottest returns the n largest contributors to the bound, sorted by
// total cycles — the "where does the worst case go" view used when
// deciding where the next preemption point pays off.
func (r *Result) Hottest(n int) []HotBlock {
	var hot []HotBlock
	for _, node := range r.Graph.Nodes {
		if node.Block == nil || r.Counts[node.ID] == 0 {
			continue
		}
		hot = append(hot, HotBlock{
			Key:    node.Key(),
			Count:  r.Counts[node.ID],
			Cycles: uint64(r.Counts[node.ID]) * r.NodeCost[node.ID],
		})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Cycles != hot[j].Cycles {
			return hot[i].Cycles > hot[j].Cycles
		}
		return hot[i].Key < hot[j].Key
	})
	if n > 0 && len(hot) > n {
		hot = hot[:n]
	}
	return hot
}

// AnalyzeAll runs every entry point declared by the image. The
// returned map is keyed by entry name; use AnalyzeAllOrdered when the
// caller needs results in the image's deterministic entry order.
func (a *Analyzer) AnalyzeAll() (map[string]*Result, error) {
	ordered, err := a.AnalyzeAllOrdered(context.Background())
	if err != nil {
		return nil, err
	}
	return resultMap(ordered), nil
}

// AnalyzeAllOrdered analyses every entry point sequentially and
// returns the results in the image's entry order — the deterministic
// form consumers should iterate when their output must be byte-stable
// across runs.
func (a *Analyzer) AnalyzeAllOrdered(ctx context.Context) ([]*Result, error) {
	out := make([]*Result, 0, len(a.Img.Entries))
	for _, e := range a.Img.Entries {
		r, err := a.AnalyzeContext(ctx, e)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func resultMap(ordered []*Result) map[string]*Result {
	out := make(map[string]*Result, len(ordered))
	for _, r := range ordered {
		out[r.Entry] = r
	}
	return out
}

// analyzeWorkerHook, when set (tests only), observes each entry as a
// worker picks it up.
var analyzeWorkerHook func(entry string)

// AnalyzeAllParallel analyses every entry point concurrently. The
// per-entry analyses share only immutable inputs (the linked image and
// the constraint list), so they parallelise trivially; the paper's
// sequential 65-minute run would have shortened to its longest entry.
func (a *Analyzer) AnalyzeAllParallel() (map[string]*Result, error) {
	ordered, err := a.AnalyzeAllParallelOrdered(context.Background())
	if err != nil {
		return nil, err
	}
	return resultMap(ordered), nil
}

// AnalyzeAllParallelContext is AnalyzeAllParallel with cancellation.
func (a *Analyzer) AnalyzeAllParallelContext(ctx context.Context) (map[string]*Result, error) {
	ordered, err := a.AnalyzeAllParallelOrdered(ctx)
	if err != nil {
		return nil, err
	}
	return resultMap(ordered), nil
}

// AnalyzeAllParallelOrdered fans the image's entry points out over a
// bounded worker pool (Workers wide, GOMAXPROCS by default) and
// returns the results in the image's entry order. Cancelling the
// context stops workers between passes and abandons unstarted entries.
// When several entries fail, every per-entry error is reported,
// aggregated with errors.Join in entry order.
func (a *Analyzer) AnalyzeAllParallelOrdered(ctx context.Context) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	entries := a.Img.Entries
	workers := a.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(entries) {
		workers = len(entries)
	}

	results := make([]*Result, len(entries))
	errs := make([]error, len(entries))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if analyzeWorkerHook != nil {
					analyzeWorkerHook(entries[i])
				}
				results[i], errs[i] = a.AnalyzeContext(ctx, entries[i])
			}
		}()
	}
feed:
	for i := range entries {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	return results, nil
}
