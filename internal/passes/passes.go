// Package passes is the pass engine behind the WCET analysis pipeline.
// It replaces the paper's monolithic 65-minute toolchain run (§5.3)
// with composable, individually cacheable analysis passes: each pass
// names its dependencies, fingerprints the inputs it reads, and
// produces one typed artifact into a shared AnalysisContext. A
// content-addressed in-memory artifact cache lets an experiment matrix that analyses many
// (variant, hardware, constraint) combinations reuse every artifact
// whose inputs did not change, instead of recomputing the whole
// pipeline per configuration.
package passes

import (
	"context"
	"fmt"

	"verikern/internal/obs"
)

// Pass is one unit of the analysis pipeline: a named computation with
// declared dependencies whose artifact may be cached content-addressed.
type Pass struct {
	// Name is the pass's unique name; its artifact is stored in the
	// AnalysisContext under this name.
	Name string
	// Version participates in the cache key: bump it whenever the
	// pass's computation changes, invalidating previously cached
	// artifacts.
	Version int
	// Deps names passes whose artifacts this pass reads. The
	// pipeline validates that every dependency runs earlier.
	Deps []string
	// Stage optionally overrides the obs.Metrics stage name recorded
	// around Run ("pass.<Name>" when empty).
	Stage string
	// Fingerprint returns a stable digest of every input the pass
	// reads (image content, hardware config, constraint set, ...).
	// A nil Fingerprint or an empty return disables caching for the
	// pass: Run executes on every invocation.
	Fingerprint func(ac *AnalysisContext) string
	// Run computes the artifact. It must not mutate artifacts of
	// earlier passes: cached artifacts are shared across analyses
	// and across goroutines.
	Run func(ac *AnalysisContext) (any, error)
}

func (p *Pass) stageName() string {
	if p.Stage != "" {
		return p.Stage
	}
	return "pass." + p.Name
}

// AnalysisContext carries one analysis run's inputs and the typed
// artifacts produced by its passes, plus the cancellation context, the
// metrics registry and the artifact cache shared across runs.
type AnalysisContext struct {
	// Ctx cancels the pipeline between passes.
	Ctx context.Context
	// Metrics receives per-pass stage timings and cache hit/miss
	// counters; nil disables collection (obs.Metrics is nil-safe).
	Metrics *obs.Metrics
	// Cache, when non-nil, serves and stores pass artifacts keyed by
	// (pass name, pass version, input fingerprint).
	Cache *Cache

	artifacts map[string]any
}

// NewContext returns a context for one pipeline run.
func NewContext(ctx context.Context, m *obs.Metrics, c *Cache) *AnalysisContext {
	if ctx == nil {
		ctx = context.Background()
	}
	return &AnalysisContext{Ctx: ctx, Metrics: m, Cache: c, artifacts: make(map[string]any)}
}

// Set stores an artifact under a name. Passes may deposit secondary
// artifacts beyond their return value.
func (ac *AnalysisContext) Set(name string, v any) { ac.artifacts[name] = v }

// Get returns the named artifact.
func (ac *AnalysisContext) Get(name string) (any, bool) {
	v, ok := ac.artifacts[name]
	return v, ok
}

// Artifact returns the named artifact asserted to type T, with
// ok=false when absent or of a different type.
func Artifact[T any](ac *AnalysisContext, name string) (T, bool) {
	v, ok := ac.artifacts[name]
	if !ok {
		var zero T
		return zero, false
	}
	t, ok := v.(T)
	return t, ok
}

// Pipeline is a validated, topologically ordered set of passes.
type Pipeline struct {
	order []*Pass
}

// NewPipeline validates the pass set (unique names, known
// dependencies, no cycles) and returns the passes sorted so that every
// pass runs after its dependencies. Ties keep declaration order, so a
// pipeline's stage sequence is deterministic.
func NewPipeline(ps ...*Pass) (*Pipeline, error) {
	byName := make(map[string]*Pass, len(ps))
	for _, p := range ps {
		if p.Name == "" {
			return nil, fmt.Errorf("passes: pass with empty name")
		}
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("passes: duplicate pass %q", p.Name)
		}
		if p.Run == nil {
			return nil, fmt.Errorf("passes: pass %q has no Run", p.Name)
		}
		byName[p.Name] = p
	}
	// Depth-first topological sort in declaration order.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[string]int, len(ps))
	var order []*Pass
	var visit func(p *Pass) error
	visit = func(p *Pass) error {
		switch state[p.Name] {
		case grey:
			return fmt.Errorf("passes: dependency cycle through %q", p.Name)
		case black:
			return nil
		}
		state[p.Name] = grey
		for _, d := range p.Deps {
			dp := byName[d]
			if dp == nil {
				return fmt.Errorf("passes: pass %q depends on unknown pass %q", p.Name, d)
			}
			if err := visit(dp); err != nil {
				return err
			}
		}
		state[p.Name] = black
		order = append(order, p)
		return nil
	}
	for _, p := range ps {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return &Pipeline{order: order}, nil
}

// Passes returns the passes in execution order.
func (pl *Pipeline) Passes() []*Pass { return pl.order }

// Run executes the pipeline: for each pass in dependency order it
// consults the cache (artifact served without running the pass on a
// hit) or runs the pass under a metrics stage and stores the artifact.
// Cancellation is checked between passes; the first pass error aborts
// the run.
func (pl *Pipeline) Run(ac *AnalysisContext) error {
	for _, p := range pl.order {
		if err := ac.Ctx.Err(); err != nil {
			return err
		}
		key := ""
		if ac.Cache != nil && p.Fingerprint != nil {
			if fp := p.Fingerprint(ac); fp != "" {
				key = KeyID(p.Name, p.Version, fp)
				if v, ok := ac.Cache.Get(key); ok {
					ac.Set(p.Name, v)
					ac.Metrics.Add("passcache.hits", 1)
					ac.Metrics.Add("passcache.hit."+p.Name, 1)
					continue
				}
				ac.Metrics.Add("passcache.misses", 1)
			}
		}
		stop := ac.Metrics.Stage(p.stageName())
		v, err := p.Run(ac)
		stop()
		if err != nil {
			return err
		}
		ac.Set(p.Name, v)
		if key != "" {
			ac.Cache.Put(key, v)
		}
	}
	return nil
}
