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
	DataUnknown       int // striding refs whose footprint is not wholly pinned
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
	// pivots), plus cache hit/miss counters when Cache is set. It is
	// safe to share across AnalyzeAll's goroutines; nil disables
	// collection.
	Metrics *obs.Metrics
	// Cache, when set, serves and stores CFGs and whole Results keyed
	// by the content of their inputs (image fingerprint, entry,
	// hardware config, constraint set, KeepLP), each graph's IPET
	// row set keyed by the graph, constraint set and KeepLP, the ILP's
	// phase-1 basis keyed by the constraint rows, and each graph's
	// cache class vector keyed by the graph, pinning and the TCM
	// windows.
	// Analyzers over identical inputs — even distinct Analyzer or
	// Image objects — share entries through one cache. Nil disables
	// caching.
	Cache *Cache
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

// Bound computes the WCET bound for one entry point: CFG → classify →
// IPET/solve, with the solution checked to be one walk from the entry
// (checkTrail), under the given context. It builds no worst-case path:
// consumers that only need the number use it, and consumers that
// replay the path use AnalyzeContext. Both share one cache entry per
// result key, so an AnalyzeContext after a Bound builds only the path.
func (a *Analyzer) Bound(ctx context.Context, entry string) (uint64, error) {
	b, err := a.bound(ctx, entry)
	if err != nil {
		return 0, err
	}
	return b.res.Cycles, nil
}

// AnalyzeContext computes the WCET bound for one entry point and its
// worst-case path: CFG → classify → IPET/solve → reconstruct, under the
// given context. Cancellation is honoured between stages. With a Cache
// set, a whole Result is served when an identical analysis ran before,
// and the CFG when only the hardware or the constraint set differs.
func (a *Analyzer) AnalyzeContext(ctx context.Context, entry string) (*Result, error) {
	b, err := a.bound(ctx, entry)
	if err != nil {
		return nil, err
	}
	return b.withPath(a.Metrics)
}

// boundEntry is one solved analysis, the value of the cache's result
// tier: the Result without its path, and the positive edge counts the
// path is built from the first time withPath asks for it.
type boundEntry struct {
	res   *Result
	edges []edgeCount
	path  sync.Once
	err   error // from building the path
}

// withPath returns the entry's Result with its Trace, building the
// path under the wcet.reconstruct stage on the first call. Bound reads
// only res.Cycles, so the Trace written here races with no reader.
func (b *boundEntry) withPath(m *obs.Metrics) (*Result, error) {
	b.path.Do(func() {
		start := time.Now()
		stop := m.Stage("wcet.reconstruct")
		b.res.Trace, b.err = reconstruct(b.res.Graph, b.edges)
		stop()
		b.res.AnalysisTime += time.Since(start)
		if b.err != nil {
			b.err = fmt.Errorf("wcet: %s: %w", b.res.Entry, b.err)
		}
	})
	if b.err != nil {
		return nil, b.err
	}
	return b.res, nil
}

// bound returns the entry's solved analysis, through the cache when
// one is set.
func (a *Analyzer) bound(ctx context.Context, entry string) (*boundEntry, error) {
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
	if a.Cache == nil {
		return a.solve(ctx, entry)
	}
	b, hit, err := get(ctx, a.Cache, a.Metrics, a.Cache.results, a.resultKey(entry),
		func() (*boundEntry, error) { return a.solve(ctx, entry) })
	if hit {
		a.Metrics.Add("wcet.entries_cached", 1)
	}
	return b, err
}

// solve runs CFG → classify → IPET/solve for one entry point.
func (a *Analyzer) solve(ctx context.Context, entry string) (*boundEntry, error) {
	start := time.Now()
	g, err := a.graph(ctx, entry)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := a.Metrics.Stage("wcet.classify")
	cl, err := a.classVector(ctx, g, entry)
	if err != nil {
		stop()
		return nil, err
	}
	nodeCost, loopEntryCost := cl.costs(a.HW)
	stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop = a.Metrics.Stage("wcet.ipet")
	res, edges, err := a.solveIPET(ctx, g, nodeCost, loopEntryCost, entry)
	stop()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Entry = entry
	res.Graph = g
	res.NodeCost = nodeCost
	res.Classified = cl.stats
	res.Micros = a.HW.Backend().CyclesToMicros(res.Cycles)
	res.AnalysisTime = time.Since(start)
	a.Metrics.Add("wcet.entries_analyzed", 1)
	return &boundEntry{res: res, edges: edges}, nil
}

// graph returns the entry's inlined whole-program CFG with loop bounds
// attached, from the cache's graph tier when an identical image was
// analysed before. The graph is immutable once built.
func (a *Analyzer) graph(ctx context.Context, entry string) (*cfg.Graph, error) {
	if a.Cache == nil {
		return a.buildGraph(entry)
	}
	g, _, err := get(ctx, a.Cache, a.Metrics, a.Cache.graphs, a.graphKey(entry),
		func() (*cfg.Graph, error) { return a.buildGraph(entry) })
	return g, err
}

// buildGraph inlines the entry's whole-program CFG and finds its loops.
func (a *Analyzer) buildGraph(entry string) (*cfg.Graph, error) {
	stop := a.Metrics.Stage("wcet.cfg")
	g, err := cfg.Inline(a.Img, entry)
	if err == nil {
		err = g.FindLoops(a.Img)
	}
	stop()
	if err != nil {
		return nil, err
	}
	a.Metrics.Add("cfg.nodes", uint64(len(g.Nodes)))
	a.Metrics.Add("cfg.loops", uint64(len(g.Loops)))
	return g, nil
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

// analyzeWorkerHook, when set (tests only), observes each entry as a
// worker picks it up.
var analyzeWorkerHook func(entry string)

// AnalyzeAll analyses every entry point declared by the image over a
// pool of min(GOMAXPROCS, entries) workers and returns the results in
// the image's entry order. The per-entry analyses share only immutable
// inputs (the linked image and the constraint list), so they
// parallelise trivially; the paper's sequential 65-minute run would
// have shortened to its longest entry. Cancelling the context stops
// workers between stages and abandons unstarted entries. When several
// entries fail, every per-entry error is reported, aggregated with
// errors.Join in entry order.
func (a *Analyzer) AnalyzeAll(ctx context.Context) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	entries := a.Img.Entries
	workers := min(runtime.GOMAXPROCS(0), len(entries))

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
