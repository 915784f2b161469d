// Package machine is the cycle-accounting simulator of the evaluation
// platform: it executes instruction traces from a kernel image against
// concrete L1/L2 caches, a branch predictor and the memory latencies of
// the KZM board, producing the "observed" execution times of the
// paper's methodology (§5.4). The static analyser (internal/wcet) uses
// conservative abstractions of exactly the same hardware parameters, so
// computed bounds and observed times are directly comparable.
package machine

import (
	"verikern/internal/arch"
	"verikern/internal/cache"
	"verikern/internal/kimage"
	"verikern/internal/pipeline"
)

// Counters aggregates performance-monitoring counters for a run,
// mirroring the ARM1136 PMU events the paper measures with.
type Counters struct {
	Instructions uint64
	Cycles       uint64
	L1IHits      uint64
	L1IMisses    uint64
	L1DHits      uint64
	L1DMisses    uint64
	L2Hits       uint64
	L2Misses     uint64
	Writebacks   uint64
	Branches     uint64
}

// Machine simulates the platform. Construct with New.
type Machine struct {
	cfg arch.Config
	b   *arch.Backend
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache
	bp  *pipeline.Predictor

	counters Counters
}

// New constructs a machine for the platform configuration. Cache
// geometries are fixed by the configuration's backend; cfg selects the
// backend plus L2 enablement, branch prediction and the number of
// locked L1 ways. New panics on a configuration its backend rejects
// (e.g. L2Enabled on a backend without an L2): silently simulating a
// machine that cannot exist would desynchronise observation and bound.
func New(cfg arch.Config) *Machine {
	b := cfg.Backend()
	if err := b.ValidateConfig(cfg); err != nil {
		panic(err)
	}
	mk := func(g arch.CacheGeometry, locked int) *cache.Cache {
		ways := g.Ways
		if cfg.TCMEnabled {
			// One way of each L1 is repurposed as TCM.
			ways--
		}
		if locked >= ways {
			locked = ways - 1
		}
		return cache.New(cache.Config{
			Sets:       g.Sets(),
			Ways:       ways,
			LineBytes:  g.LineBytes,
			LockedWays: locked,
		})
	}
	m := &Machine{
		cfg: cfg,
		b:   b,
		l1i: mk(b.L1I, cfg.PinnedL1Ways),
		l1d: mk(b.L1D, cfg.PinnedL1Ways),
		bp:  pipeline.NewPredictorArch(b, cfg.BranchPredictor, b.PredictorBits),
	}
	if cfg.L2Enabled {
		locked := 0
		if cfg.L2LockedKernel {
			// Lock up to half the L2 (4 of 8 ways = 64 KiB)
			// for kernel text, comfortably covering the
			// paper's 36 KiB binary.
			locked = 4
		}
		m.l2 = mk(b.L2, locked)
	}
	return m
}

// Config returns the machine's platform configuration.
func (m *Machine) Config() arch.Config { return m.cfg }

// LoadImage installs an image's pinned lines into the locked L1 ways
// and, under the kernel-locking configuration, the whole text segment
// into the locked L2 ways. It reports the number of lines that could
// not be pinned (pin set exceeding the locked capacity of some set).
func (m *Machine) LoadImage(img *kimage.Image) int {
	failed := 0
	if m.cfg.PinnedL1Ways > 0 {
		for _, a := range img.PinnedLines {
			if !m.l1i.Pin(a) {
				failed++
			}
		}
		for _, a := range img.PinnedData {
			if !m.l1d.Pin(a) {
				failed++
			}
		}
	}
	if m.l2 != nil && m.cfg.L2LockedKernel {
		for _, a := range img.CodeLines() {
			if !m.l2.Pin(a) {
				failed++
			}
		}
	}
	return failed
}

// Pollute fills all caches with conflicting dirty lines and resets the
// replacement state and the branch predictor — the adversarial
// pre-state for worst-case measurement runs (§5.4). Only the pinned
// lines carry over from earlier runs (possibly dirtied by a store,
// which costs nothing since pinned lines are never evicted), so a
// polluted machine times a run exactly as a freshly loaded one
// polluted with the same seed would.
func (m *Machine) Pollute(seed uint32) {
	m.l1i.ResetReplacement()
	m.l1i.Pollute(seed)
	m.l1d.ResetReplacement()
	m.l1d.Pollute(seed ^ 0x5555)
	if m.l2 != nil {
		m.l2.ResetReplacement()
		m.l2.Pollute(seed ^ 0xAAAA)
	}
	m.bp.Reset()
}

// PrimeSpec parameterises one adversarial machine-priming candidate —
// the state-space the directed worst-case probe searches over before
// raising its measurement run.
type PrimeSpec struct {
	// Seed selects the conflicting tag space for pollution.
	Seed uint32
	// Footprint, when set, dirties exactly the sets of the target
	// trace's footprint (after a full pollution pass) so the victim's
	// own lines are evicted by freshly conflicting dirty lines.
	Footprint bool
	// ReplacementAdvance clocks every cache's replacement state this
	// many steps, sweeping the victim-selection phase.
	ReplacementAdvance int
	// Mistrain saturates the branch predictor against the trace's
	// actual directions, so every predicted branch mispredicts.
	Mistrain bool
}

// Prime places the machine in an adversarial state for a subsequent
// Run(trace); it compiles the trace and calls PrimeReplay.
func (m *Machine) Prime(trace []*kimage.Block, spec PrimeSpec) {
	m.PrimeReplay(kimage.Compile(trace), spec)
}

// PrimeReplay places the machine in an adversarial state for a
// subsequent RunReplay(r): full cache pollution, optional
// footprint-targeted dirtying, replacement-state phase advance, and
// predictor mistraining. Every priming dimension is bounded by the
// static analyser's assumptions (all unclassifiable accesses miss with
// write-back; all branches mispredict when prediction is enabled), so
// no primed run can exceed a computed bound — the probe's soundness
// invariant. Like Pollute, it leaves a used machine in the state a
// freshly loaded one reaches with the same spec.
func (m *Machine) PrimeReplay(r *kimage.Replay, spec PrimeSpec) {
	m.Pollute(spec.Seed)
	if spec.Footprint {
		code, data := r.Footprint()
		m.l1i.DirtyFootprint(code, spec.Seed^0x3333)
		m.l1d.DirtyFootprint(data, spec.Seed^0x6666)
		if m.l2 != nil {
			m.l2.DirtyFootprint(code, spec.Seed^0x9999)
			m.l2.DirtyFootprint(data, spec.Seed^0xCCCC)
		}
	}
	if spec.ReplacementAdvance > 0 {
		m.l1i.AdvanceReplacement(spec.ReplacementAdvance)
		m.l1d.AdvanceReplacement(spec.ReplacementAdvance)
		if m.l2 != nil {
			m.l2.AdvanceReplacement(spec.ReplacementAdvance)
		}
	}
	if spec.Mistrain {
		for _, b := range r.Blocks {
			m.bp.Mistrain(b.Branch, b.Taken)
		}
	}
}

// memAccess plays one access through L1 (i or d), then L2/memory, and
// returns its cycle cost beyond the instruction's base cost.
func (m *Machine) memAccess(l1 *cache.Cache, addr uint32, write bool) uint64 {
	r1 := l1.Access(addr, write)
	if r1.Hit {
		return 0
	}
	// Write-backs of dirty victims are buffered by the hardware and
	// largely overlap with subsequent execution; the simulator
	// charges a small drain cost per write-back. The static
	// analyser, which cannot reason about buffer occupancy, charges
	// the full unbuffered cost — one of the model conservatisms
	// Figure 8 quantifies.
	var cost uint64
	if r1.Writeback {
		m.counters.Writebacks++
		if m.l2 == nil {
			cost += m.b.LatMemL2Off / 8
		} else {
			cost += m.b.LatL2Hit / 4
		}
	}
	if m.l2 == nil {
		return cost + m.b.LatMemL2Off
	}
	r2 := m.l2.Access(addr, write)
	if r2.Hit {
		return cost + m.b.LatL2Hit
	}
	if r2.Writeback {
		m.counters.Writebacks++
		cost += m.b.LatMemL2On / 8
	}
	return cost + m.b.LatMemL2On
}

// Run executes a trace of blocks in order, returning total cycles; it
// compiles the trace and calls RunReplay.
func (m *Machine) Run(trace []*kimage.Block) uint64 {
	return m.RunReplay(kimage.Compile(trace))
}

// RunReplay executes a compiled trace in order, returning total
// cycles. Every instruction is charged its class's base cost and
// fetched through the I-side hierarchy, and its data access goes
// through the D-side; TCM-backed addresses bypass the caches. Each
// block's terminating branch goes through the predictor. Cache and
// predictor state persists from previous runs (call Pollute or
// PrimeReplay to control it).
func (m *Machine) RunReplay(r *kimage.Replay) uint64 {
	var cycles uint64
	start := uint32(0)
	for _, b := range r.Blocks {
		fetch := b.Addr
		for _, s := range r.Steps[start:b.End] {
			cycles += m.b.BaseCost(s.Class)
			if !m.cfg.InITCM(fetch) {
				cycles += m.memAccess(m.l1i, fetch, false)
			}
			fetch += 4
			if s.HasData && !m.cfg.InDTCM(s.Data) {
				cycles += m.memAccess(m.l1d, s.Data, s.Write)
			}
		}
		start = b.End
		cycles += m.bp.Branch(b.Branch, b.Taken)
	}
	m.counters.Instructions += uint64(len(r.Steps))
	m.counters.Branches += uint64(len(r.Blocks))
	m.counters.Cycles += cycles
	return cycles
}

// Counters returns the accumulated PMU counters.
func (m *Machine) Counters() Counters {
	c := m.counters
	c.L1IHits, c.L1IMisses, _ = m.l1i.Stats()
	c.L1DHits, c.L1DMisses, _ = m.l1d.Stats()
	if m.l2 != nil {
		c.L2Hits, c.L2Misses, _ = m.l2.Stats()
	}
	return c
}

// ResetCounters zeroes all PMU counters.
func (m *Machine) ResetCounters() {
	m.counters = Counters{}
	m.l1i.ResetStats()
	m.l1d.ResetStats()
	if m.l2 != nil {
		m.l2.ResetStats()
	}
}
