package soak

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"verikern/internal/arch"
	"verikern/internal/obs"
)

// Report is the outcome of one soak run: the merged observability
// snapshot (event counts, overall and per-source latency digests,
// sentinel status) plus the flight-recorder captures.
type Report struct {
	// Label, Arch, Seed, Workers and Ops echo the configuration
	// actually run (Arch resolved to the backend id, never empty).
	Label   string
	Arch    string
	Seed    uint64
	Workers int
	Ops     uint64
	// SimCycles is the simulated time consumed, summed across
	// workers.
	SimCycles uint64
	// MaxLatency is the worst interrupt-response latency observed.
	MaxLatency uint64
	// Bound is the sentinel's merged verdict.
	Bound obs.BoundStatus
	// Captures are the flight-recorder dumps, in worker order.
	Captures []Capture
	// Snapshot is the merged exposition document (per-source digests,
	// Prometheus rendering).
	Snapshot *obs.Snapshot
}

// Sources returns the per-source latency digests.
func (r *Report) Sources() []obs.LatencyDigest { return r.Snapshot.SourceDigests() }

// String renders a compact human summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d ops, %d workers, seed %d\n", r.Label, r.Ops, r.Workers, r.Seed)
	fmt.Fprintf(&b, "  irq samples %d, max %d cycles (%.1f µs)",
		r.Snapshot.IRQ.Count, r.MaxLatency, arch.MustLookup(r.Arch).CyclesToMicros(r.MaxLatency))
	if r.Bound.Cycles > 0 {
		fmt.Fprintf(&b, ", bound %d: %d violations, %d near-max, %d captures",
			r.Bound.Cycles, r.Bound.Violations, r.Bound.NearMax, r.Bound.Captures)
	}
	b.WriteString("\n")
	for _, d := range r.Sources() {
		fmt.Fprintf(&b, "  %-14s n=%-7d p50<=%-8d p99<=%-8d max=%d\n",
			d.Source, d.Count, d.P50, d.P99, d.Max)
	}
	return b.String()
}

// report assembles the merged Report from finished runners, in worker-
// index order so the result is deterministic regardless of goroutine
// scheduling.
func report(cfg Config, runners []*Runner) *Report {
	backend := arch.MustLookup(cfg.Arch)
	snap := obs.NewSnapshot()
	snap.Label = cfg.Label
	snap.Arch = backend.ID
	snap.Config = cfg.ConfigKey
	snap.Seed = cfg.Seed
	snap.Workers = len(runners)
	r := &Report{
		Label:   cfg.Label,
		Arch:    backend.ID,
		Seed:    cfg.Seed,
		Workers: len(runners),
	}
	bound := obs.BoundStatus{Cycles: cfg.BoundCycles, MarginPercent: cfg.MarginPercent}
	for _, rn := range runners {
		snap.AddTracer(rn.tracer)
		r.Ops += rn.ops
		r.SimCycles += rn.k.Now()
		if m := rn.k.MaxLatency(); m > r.MaxLatency {
			r.MaxLatency = m
		}
		st := rn.sent.status()
		bound.Violations += st.Violations
		bound.NearMax += st.NearMax
		bound.Captures += st.Captures
		// Captures already carry their worker/seed identity (stamped at
		// capture time); the merge just concatenates in worker order.
		r.Captures = append(r.Captures, rn.sent.captures...)
	}
	snap.Ops = r.Ops
	snap.SimCycles = r.SimCycles
	snap.Bound = &bound
	r.Bound = bound
	r.Snapshot = snap
	return r
}

// stepChunk bounds how many ops run between context checks.
const stepChunk = 256

// ShardBudget returns worker i's share of a total op budget split
// across `workers` shards: an even split with earlier workers absorbing
// the remainder. Run and the fleet coordinator must agree on this
// function exactly — equal-seed equivalence between an N-worker fleet
// and an N-worker single-process soak depends on identical per-shard
// budgets.
func ShardBudget(total uint64, workers, i int) uint64 {
	if workers <= 0 || i < 0 || i >= workers {
		return 0
	}
	per := total / uint64(workers)
	if uint64(i) < total%uint64(workers) {
		per++
	}
	return per
}

// resolve fills in the sentinel's WCET bound unless the config pins
// one, running the analysis pipeline at most once per config.
func resolve(ctx context.Context, cfg Config) (Config, error) {
	cfg = cfg.WithDefaults()
	if cfg.BoundCycles == 0 {
		b, err := ComputeBound(ctx, cfg)
		if err != nil {
			return cfg, err
		}
		cfg.BoundCycles = b
	}
	return cfg, nil
}

// Run executes a full soak: it resolves the WCET bound (unless the
// config pins one), boots cfg.Workers kernel instances with disjoint
// sub-seeds, drives cfg.Ops operations split across them, and merges
// the results deterministically. Cancellation is honoured between
// operation chunks; the partial report is returned alongside the
// context error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := resolve(ctx, cfg)
	if err != nil {
		return nil, err
	}
	runners := make([]*Runner, cfg.Workers)
	for i := range runners {
		rn, err := NewRunner(cfg, i)
		if err != nil {
			return nil, err
		}
		runners[i] = rn
	}

	// Split the op budget; earlier workers absorb the remainder.
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for i, rn := range runners {
		budget := ShardBudget(cfg.Ops, cfg.Workers, i)
		wg.Add(1)
		go func(i int, rn *Runner, budget uint64) {
			defer wg.Done()
			for rn.ops < budget {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				n := budget - rn.ops
				if n > stepChunk {
					n = stepChunk
				}
				if err := rn.Step(int(n)); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, rn, budget)
	}
	wg.Wait()

	rep := report(cfg, runners)
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// RunFor is Run under a wall-clock budget instead of an op budget:
// workers step until the deadline (or cancellation), so the op count
// is whatever the host machine managed — the interactive `kzm-sim
// -soak 2s` mode. The per-worker operation *sequences* are still
// seeded and deterministic; only how far each sequence gets depends on
// the wall clock.
func RunFor(ctx context.Context, cfg Config, wall time.Duration) (*Report, error) {
	cfg, err := resolve(ctx, cfg)
	if err != nil {
		return nil, err
	}
	runners := make([]*Runner, cfg.Workers)
	for i := range runners {
		rn, err := NewRunner(cfg, i)
		if err != nil {
			return nil, err
		}
		runners[i] = rn
	}
	deadline := time.Now().Add(wall)
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for i, rn := range runners {
		wg.Add(1)
		go func(i int, rn *Runner) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if ctx.Err() != nil {
					return // deliberate stop, not an error
				}
				if err := rn.Step(stepChunk); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, rn)
	}
	wg.Wait()
	rep := report(cfg, runners)
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}
