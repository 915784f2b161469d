package soak

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"verikern/internal/arch"
	"verikern/internal/obs"
)

// Report is the outcome of one soak run: the merged observability
// snapshot (identity, op and cycle totals, event counts, overall and
// per-source latency digests, sentinel status) plus the
// flight-recorder captures.
type Report struct {
	// Snapshot is the merged exposition document. Its IRQ.Max is the
	// worst interrupt-response latency observed and its Bound the
	// sentinel's merged verdict.
	Snapshot *obs.Snapshot
	// Captures are the flight-recorder dumps, in worker order.
	Captures []Capture
}

// String renders a compact human summary.
func (r *Report) String() string {
	s := r.Snapshot
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d ops, %d workers, seed %d\n", s.Label, s.Ops, s.Workers, s.Seed)
	fmt.Fprintf(&b, "  irq samples %d, max %d cycles (%.1f µs)",
		s.IRQ.Count, s.IRQ.Max, arch.MustLookup(s.Arch).CyclesToMicros(s.IRQ.Max))
	if bd := s.Bound; bd != nil && bd.Cycles > 0 {
		fmt.Fprintf(&b, ", bound %d: %d violations, %d near-max, %d captures",
			bd.Cycles, bd.Violations, bd.NearMax, bd.Captures)
	}
	b.WriteString("\n")
	for _, d := range s.Sources {
		fmt.Fprintf(&b, "  %-14s n=%-7d p50<=%-8d p99<=%-8d max=%d\n",
			d.Source, d.Count, d.P50, d.P99, d.Max)
	}
	return b.String()
}

// report assembles the merged Report from finished runners: the sum
// of their tallies, and their captures in worker-index order, so the
// result is deterministic regardless of goroutine scheduling.
func report(cfg Config, runners []*Runner) *Report {
	var sum, t Tally
	r := &Report{}
	for _, rn := range runners {
		rn.Tally(&t)
		sum.Add(&t)
		// Captures already carry their worker/seed identity (stamped at
		// capture time); the merge just concatenates in worker order.
		r.Captures = append(r.Captures, rn.sent.captures...)
	}
	r.Snapshot = sum.Snapshot(cfg)
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
	rep, _, err := run(ctx, cfg, 0)
	return rep, err
}

// RunFor is Run under a wall-clock budget instead of an op budget:
// workers step until the deadline (or cancellation, which here is a
// deliberate stop, not an error), so the op count is whatever the host
// machine managed — the interactive `kzm-sim -soak 2s` mode. The
// per-worker operation *sequences* are still seeded and deterministic;
// only how far each sequence gets depends on the wall clock.
func RunFor(ctx context.Context, cfg Config, wall time.Duration) (*Report, error) {
	rep, _, err := run(ctx, cfg, wall)
	return rep, err
}

// run is the one soak loop: with wall == 0 each worker steps its
// ShardBudget share of cfg.Ops, otherwise it steps until a deadline
// wall after boot (the bound analysis in resolve does not eat the
// budget). The runners come back with the report so tests can check
// the merge against them.
func run(ctx context.Context, cfg Config, wall time.Duration) (*Report, []*Runner, error) {
	cfg, err := resolve(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	runners := make([]*Runner, cfg.Workers)
	for i := range runners {
		if runners[i], err = NewRunner(cfg, i); err != nil {
			return nil, nil, err
		}
	}
	deadline := time.Now().Add(wall)
	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for i, rn := range runners {
		budget := ShardBudget(cfg.Ops, cfg.Workers, i)
		if wall > 0 {
			budget = math.MaxUint64
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rn.ops < budget && (wall == 0 || time.Now().Before(deadline)) {
				if err := ctx.Err(); err != nil {
					if wall == 0 {
						errs[i] = err
					}
					return
				}
				if errs[i] = rn.Step(int(min(budget-rn.ops, stepChunk))); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	rep := report(cfg, runners)
	for _, err := range errs {
		if err != nil {
			return rep, runners, err
		}
	}
	return rep, runners, nil
}
