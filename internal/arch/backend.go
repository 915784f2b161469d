package arch

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Backend is a complete description of one simulated evaluation
// platform: instruction timing classes, branch costs, memory-hierarchy
// latencies, cache geometries, the platform address map and the
// architectural interrupt-entry cost. Every consumer of the hardware
// model — the timing simulator (internal/machine), the pipeline model
// (internal/pipeline), the synthetic kernel binary (internal/kimage,
// internal/kbin) and the static WCET analyser (internal/wcet) — reads
// these parameters through the backend carried by its arch.Config, so
// the analyser and the simulator always model the same hardware, and
// retargeting the whole stack to a new core is a matter of registering
// a new Backend (see docs/architectures.md).
//
// Backends are immutable after registration; the registry hands out
// shared pointers.
type Backend struct {
	// ID is the backend's stable identifier ("arm1136", "cva6rt"),
	// used by -arch flags, cache keys and BENCH_* artifact rows.
	ID string
	// Version participates in every content-addressed cache key and
	// every konfig point hash derived from this backend. Bump it
	// whenever any timing or geometry parameter changes, so the
	// in-memory analysis cache can never serve a stale result.
	Version int
	// Desc is a one-line human description.
	Desc string

	// ClockHz is the simulated CPU clock.
	ClockHz uint64

	// LineBytes is the cache line size shared by all caches.
	LineBytes int
	// L1I, L1D and L2 are the cache geometries. L2 is meaningful only
	// when HasL2 is set.
	L1I, L1D, L2 CacheGeometry
	// HasL2 reports whether the platform has a unified L2 cache at
	// all; Config.L2Enabled is invalid on backends without one.
	HasL2 bool

	// LatL2Hit is the L2 hit latency; LatMemL2Off and LatMemL2On the
	// main-memory latencies with the L2 disabled/enabled. On backends
	// without an L2, LatMemL2Off is the (single) memory latency and
	// the other two are unused.
	LatL2Hit, LatMemL2Off, LatMemL2On uint64

	// ClassCosts is the base pipeline issue cost per instruction
	// class, excluding memory-hierarchy penalties. The Branch entry
	// must be zero: branch cost is resolved by the predictor model
	// from the three Branch* fields below.
	ClassCosts [NumClasses]uint64

	// BranchNoPredict is the constant branch cost with dynamic
	// prediction disabled (or on cores with no dynamic predictor).
	// BranchPredicted / BranchMispredict are the dynamic predictor's
	// outcome costs; they are meaningful only when
	// HasDynamicPredictor is set.
	BranchNoPredict, BranchPredicted, BranchMispredict uint64
	// HasDynamicPredictor reports whether the core has a dynamic
	// branch predictor; Config.BranchPredictor is invalid without it.
	HasDynamicPredictor bool
	// PredictorBits is log2 of the dynamic predictor's table of 2-bit
	// counters. It is non-zero exactly when HasDynamicPredictor is set.
	PredictorBits uint

	// HasTCM reports whether one L1 way can be repurposed as
	// tightly-coupled memory; Config.TCMEnabled is invalid without
	// it. Each window is TCMBytes, one L1 way.
	HasTCM bool

	// Address map: kernel text from KernelBase, kernel objects above
	// KernelHeapBase, the kernel stack at KernelStack, user images at
	// UserBase. KernelWindowBytes is the portion of a page directory
	// holding kernel global mappings that must be copied into every
	// new page directory (zero on architectures whose page-table
	// format shares kernel mappings globally).
	KernelBase, KernelHeapBase, KernelStack, UserBase uint32
	KernelWindowBytes                                 int

	// IRQEntryCycles / IRQExitCycles are the architectural costs of
	// taking and returning from an interrupt — mode switch, vector
	// dispatch, pipeline refill — outside any instruction the kernel
	// image itself executes. On cores with a constant-cost interrupt
	// path (CVA6-RT-style direct vectoring) these are constants the
	// bound composition adds verbatim; on the ARM1136 model they are
	// zero because the synthetic image's entrySave/exitRestore code
	// carries the cost instead.
	IRQEntryCycles, IRQExitCycles uint64
}

// Key returns the backend's cache-key component, "id@vN". Every
// content-addressed analysis artifact key and every image fingerprint
// includes it, so switching -arch can never be served a stale result
// computed under another backend (or another version of this one).
func (b *Backend) Key() string { return fmt.Sprintf("%s@v%d", b.ID, b.Version) }

// BaseCost returns the pipeline issue cost of an instruction class on
// this backend, excluding memory-hierarchy penalties and branch
// resolution.
func (b *Backend) BaseCost(c Class) uint64 {
	if int(c) < len(b.ClassCosts) {
		return b.ClassCosts[c]
	}
	return b.ClassCosts[ALU]
}

// CyclesToMicros converts a cycle count to microseconds on this
// backend's clock.
func (b *Backend) CyclesToMicros(cycles uint64) float64 {
	return float64(cycles) / (float64(b.ClockHz) / 1e6)
}

// WorstBranchCost returns the per-branch bound the static analyser
// must assume: the constant no-predictor cost, or the misprediction
// cost when dynamic prediction is enabled (the analyser cannot model
// predictor state, §5.1).
func (b *Backend) WorstBranchCost(predictorEnabled bool) uint64 {
	if predictorEnabled && b.HasDynamicPredictor {
		return b.BranchMispredict
	}
	return b.BranchNoPredict
}

// InterruptEntryCost returns the architectural cost of interrupt entry
// under a configuration. On CVA6-RT it is a constant regardless of
// configuration — the property the deterministic-interrupt design
// argues for and the arch invariant tests assert; on ARM1136 it is
// zero (the image's entrySave path models the sequence).
func (b *Backend) InterruptEntryCost(Config) uint64 { return b.IRQEntryCycles }

// Validate checks the backend's own arch invariants: cache geometry
// divisibility, positive latencies and costs, predictor cost ordering.
// Registration rejects invalid backends; the property tests run it
// against every registered backend.
func (b *Backend) Validate() error {
	if b.ID == "" {
		return fmt.Errorf("arch: backend has empty ID")
	}
	if b.Version <= 0 {
		return fmt.Errorf("arch %s: version must be positive", b.ID)
	}
	if b.ClockHz == 0 {
		return fmt.Errorf("arch %s: zero clock", b.ID)
	}
	if b.LineBytes <= 0 || b.LineBytes&(b.LineBytes-1) != 0 {
		return fmt.Errorf("arch %s: line size %d not a positive power of two", b.ID, b.LineBytes)
	}
	geoms := []struct {
		name string
		g    CacheGeometry
	}{{"l1i", b.L1I}, {"l1d", b.L1D}}
	if b.HasL2 {
		geoms = append(geoms, struct {
			name string
			g    CacheGeometry
		}{"l2", b.L2})
	}
	for _, cg := range geoms {
		g := cg.g
		if g.LineBytes != b.LineBytes {
			return fmt.Errorf("arch %s: %s line size %d != platform line size %d", b.ID, cg.name, g.LineBytes, b.LineBytes)
		}
		if g.Ways <= 0 || g.SizeBytes <= 0 {
			return fmt.Errorf("arch %s: %s geometry not positive: %+v", b.ID, cg.name, g)
		}
		if g.SizeBytes%(g.Ways*g.LineBytes) != 0 {
			return fmt.Errorf("arch %s: %s size %d not divisible by ways*line (%d*%d)", b.ID, cg.name, g.SizeBytes, g.Ways, g.LineBytes)
		}
		if s := g.Sets(); s <= 0 || s&(s-1) != 0 {
			return fmt.Errorf("arch %s: %s set count %d not a positive power of two", b.ID, cg.name, s)
		}
	}
	for c := Class(0); c < numClasses; c++ {
		if c == Branch {
			if b.ClassCosts[c] != 0 {
				return fmt.Errorf("arch %s: Branch class cost must be 0 (resolved by the predictor model)", b.ID)
			}
			continue
		}
		if b.ClassCosts[c] == 0 {
			return fmt.Errorf("arch %s: class %s has zero cost", b.ID, c)
		}
	}
	if b.BranchNoPredict == 0 {
		return fmt.Errorf("arch %s: zero no-predict branch cost", b.ID)
	}
	if b.HasDynamicPredictor != (b.PredictorBits != 0) {
		return fmt.Errorf("arch %s: predictor table of 2^%d entries with HasDynamicPredictor=%v", b.ID, b.PredictorBits, b.HasDynamicPredictor)
	}
	if b.HasDynamicPredictor {
		if b.BranchPredicted == 0 || b.BranchMispredict == 0 {
			return fmt.Errorf("arch %s: dynamic predictor with zero outcome cost", b.ID)
		}
		if b.BranchMispredict < b.BranchPredicted {
			return fmt.Errorf("arch %s: misprediction (%d) cheaper than prediction (%d)", b.ID, b.BranchMispredict, b.BranchPredicted)
		}
		if b.BranchMispredict < b.BranchNoPredict {
			return fmt.Errorf("arch %s: misprediction (%d) cheaper than the no-predictor constant (%d): the analyser's worst-case branch bound would be unsound", b.ID, b.BranchMispredict, b.BranchNoPredict)
		}
	}
	if b.LatMemL2Off == 0 {
		return fmt.Errorf("arch %s: zero memory latency", b.ID)
	}
	if b.HasL2 && (b.LatL2Hit == 0 || b.LatMemL2On == 0) {
		return fmt.Errorf("arch %s: L2 present with zero hit/memory latency", b.ID)
	}
	if b.HasL2 && b.LatL2Hit >= b.LatMemL2On {
		return fmt.Errorf("arch %s: L2 hit (%d) not cheaper than memory (%d)", b.ID, b.LatL2Hit, b.LatMemL2On)
	}
	if b.HasTCM && (b.L1I.WaySizeBytes() != TCMBytes || b.L1D.WaySizeBytes() != TCMBytes) {
		return fmt.Errorf("arch %s: TCM window %d bytes is not one L1 way", b.ID, TCMBytes)
	}
	if b.KernelHeapBase <= b.KernelBase {
		return fmt.Errorf("arch %s: kernel heap (%#x) not above kernel base (%#x)", b.ID, b.KernelHeapBase, b.KernelBase)
	}
	return nil
}

// MaxPinnableWays returns the exclusive upper bound on PinnedL1Ways
// for this backend: at least one way of the narrower L1 must stay
// unlocked for the replacement policy to victimise, and enabling TCM
// repurposes one further way. ValidateConfig enforces it.
func (b *Backend) MaxPinnableWays(tcmEnabled bool) int {
	maxPin := b.L1I.Ways
	if b.L1D.Ways < maxPin {
		maxPin = b.L1D.Ways
	}
	if tcmEnabled {
		maxPin--
	}
	return maxPin
}

// configCondition is one condition of hardware feasibility: fails
// tests it and builds nothing, err describes a Config it fails for.
type configCondition struct {
	fails func(b *Backend, c Config) bool
	err   func(b *Backend, c Config) error
}

// configConditions are ValidateConfig's conditions, in report order.
var configConditions = []configCondition{
	{
		fails: func(b *Backend, c Config) bool { return c.L2Enabled && !b.HasL2 },
		err:   func(*Backend, Config) error { return errors.New("no L2 cache on this backend") },
	},
	{
		fails: func(_ *Backend, c Config) bool { return c.L2LockedKernel && !c.L2Enabled },
		err:   func(*Backend, Config) error { return errors.New("kernel locked into a disabled L2") },
	},
	{
		fails: func(b *Backend, c Config) bool { return c.BranchPredictor && !b.HasDynamicPredictor },
		err:   func(*Backend, Config) error { return errors.New("no dynamic branch predictor on this backend") },
	},
	{
		fails: func(b *Backend, c Config) bool { return c.TCMEnabled && !b.HasTCM },
		err:   func(*Backend, Config) error { return errors.New("no tightly-coupled memory on this backend") },
	},
	{
		fails: func(b *Backend, c Config) bool {
			return c.PinnedL1Ways < 0 || c.PinnedL1Ways >= b.MaxPinnableWays(c.TCMEnabled)
		},
		err: func(b *Backend, c Config) error {
			return fmt.Errorf("%d pinned L1 ways outside [0,%d)", c.PinnedL1Ways, b.MaxPinnableWays(c.TCMEnabled))
		},
	},
	{
		fails: func(_ *Backend, c Config) bool { return c.TCMEnabled && uint64(c.ITCMBase)+TCMBytes > 1<<32 },
		err: func(_ *Backend, c Config) error {
			return fmt.Errorf("ITCM window at %#x runs past the address space", c.ITCMBase)
		},
	},
	{
		fails: func(_ *Backend, c Config) bool { return c.TCMEnabled && uint64(c.DTCMBase)+TCMBytes > 1<<32 },
		err: func(_ *Backend, c Config) error {
			return fmt.Errorf("DTCM window at %#x runs past the address space", c.DTCMBase)
		},
	},
}

// ValidateConfig is the one statement of hardware feasibility: a
// Config may only ask for features this backend has, lock the kernel
// only into an enabled L2, pin within the L1 geometry, and place its
// TCM windows inside the 32-bit address space. The simulator, the
// analyser and the konfig rule engine all defer to it. Every failed
// condition is reported (errors.Join), one per line after the
// backend's name.
func (b *Backend) ValidateConfig(c Config) error {
	if c.Arch != "" && c.Arch != b.ID {
		return fmt.Errorf("arch: config for %q validated against backend %q", c.Arch, b.ID)
	}
	var errs []error
	for _, cond := range configConditions {
		if cond.fails(b, c) {
			errs = append(errs, cond.err(b, c))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("arch %s: %w", b.ID, errors.Join(errs...))
}

// Supports reports whether ValidateConfig accepts c, testing the same
// conditions without building a diagnostic.
func (b *Backend) Supports(c Config) bool {
	if c.Arch != "" && c.Arch != b.ID {
		return false
	}
	for _, cond := range configConditions {
		if cond.fails(b, c) {
			return false
		}
	}
	return true
}

// --- Registry ---

var (
	registryMu sync.RWMutex
	registry   = map[string]*Backend{}
)

// Register adds a backend to the registry. It panics on a duplicate ID
// or an invalid backend: backends are registered from init functions,
// so both are programming errors.
func Register(b *Backend) {
	if err := b.Validate(); err != nil {
		panic(err)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[b.ID]; dup {
		panic(fmt.Sprintf("arch: duplicate backend %q", b.ID))
	}
	registry[b.ID] = b
}

// Lookup returns the backend registered under id, or an error naming
// the known backends. The empty id resolves to the default ARM1136
// backend, so zero-value Configs keep their historical meaning.
func Lookup(id string) (*Backend, error) {
	if id == "" {
		id = ARM1136ID
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	if b, ok := registry[id]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("arch: unknown backend %q (known: %v)", id, backendIDsLocked())
}

// MustLookup is Lookup for ids known to be registered; it panics
// otherwise.
func MustLookup(id string) *Backend {
	b, err := Lookup(id)
	if err != nil {
		panic(err)
	}
	return b
}

// BackendIDs returns the registered backend IDs, sorted.
func BackendIDs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return backendIDsLocked()
}

func backendIDsLocked() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Backend IDs of the built-in backends.
const (
	ARM1136ID = "arm1136"
	CVA6RTID  = "cva6rt"
)

// ARM1136 is the default backend: the paper's evaluation platform, a
// 532 MHz ARM1136 (i.MX31) on a KZM board (§5.1). The baseline test
// (TestARM1136Baseline) holds every bound it yields to a golden.
var ARM1136 = &Backend{
	ID:      ARM1136ID,
	Version: 1,
	Desc:    "532 MHz ARM1136 (KZM/i.MX31), split 16K 4-way L1s, unified 128K 8-way L2",

	ClockHz:   532_000_000,
	LineBytes: 32,
	// Split 16 KiB 4-way L1 caches and a unified 128 KiB 8-way L2.
	L1I:   CacheGeometry{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 32},
	L1D:   CacheGeometry{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 32},
	L2:    CacheGeometry{SizeBytes: 128 * 1024, Ways: 8, LineBytes: 32},
	HasL2: true,

	// A 26-cycle L2 hit; a 60-cycle memory access with the L2
	// disabled and 96 cycles with it enabled.
	LatL2Hit:    26,
	LatMemL2Off: 60,
	LatMemL2On:  96,

	// Most data-processing instructions single-issue; multiplies
	// take two cycles, coprocessor/system instructions three. Loads
	// and stores also pay the memory hierarchy.
	ClassCosts: [NumClasses]uint64{
		ALU:    1,
		Mul:    2,
		CLZ:    1,
		Load:   1,
		Store:  1,
		Branch: 0,
		System: 3,
	},
	// "All branches execute in a constant 5 cycles" with the
	// predictor disabled; with it enabled, 1 cycle when predicted
	// and 7 (the upper end of 0–7) when mispredicted.
	BranchNoPredict:     5,
	BranchPredicted:     1,
	BranchMispredict:    7,
	HasDynamicPredictor: true,
	// A 512-entry table of 2-bit counters.
	PredictorBits: 9,

	HasTCM: true,

	// The precise addresses only matter in that they fix cache-set
	// mappings, as the link address did for the paper's measured
	// binary. The kernel window is the 1 KiB of each page directory
	// holding kernel global mappings on ARMv6 (§3.5).
	KernelBase:        0xF000_0000,
	KernelHeapBase:    0xF010_0000,
	KernelStack:       0xF00F_F000,
	UserBase:          0x0000_8000,
	KernelWindowBytes: 1024,

	// The ARM1136 exception sequence (mode switch, vector fetch,
	// pipeline refill) is modelled by the image's entrySave code, so
	// the backend charges nothing extra.
	IRQEntryCycles: 0,
	IRQExitCycles:  0,
}

// CVA6RT is the second backend: a CVA6-RT-style time-predictable
// in-order RV64 core for mixed-criticality systems (PAPERS.md). The
// parameterisation follows the design's predictability choices rather
// than its RTL cycle counts: a predictable single-level memory path
// (no L2, constant SRAM latency), no dynamic branch prediction (all
// control transfers cost the constant front-end refill), way-lockable
// write-back L1s, and a constant-cost interrupt-entry path in the
// style of the deterministic user-level-interrupt extension (direct
// vectoring, no variable-latency state save).
var CVA6RT = &Backend{
	ID:      CVA6RTID,
	Version: 1,
	Desc:    "1 GHz CVA6-RT-style in-order RV64, 16K/32K way-lockable L1s, predictable memory path, constant-cost IRQ entry",

	ClockHz:   1_000_000_000,
	LineBytes: 32,
	L1I:       CacheGeometry{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 32},
	L1D:       CacheGeometry{SizeBytes: 32 * 1024, Ways: 8, LineBytes: 32},
	HasL2:     false,

	// One predictable memory path: a constant 40-cycle access to
	// SRAM-backed main memory, L2 latencies unused.
	LatMemL2Off: 40,

	ClassCosts: [NumClasses]uint64{
		ALU: 1,
		// The RV64 multiplier is a 3-cycle iterative unit.
		Mul: 3,
		// clz/ctz from Zbb, single cycle.
		CLZ: 1,
		// Loads pay an extra cycle of load-use delay in the 6-stage
		// in-order pipeline; stores retire through the store buffer.
		Load:   2,
		Store:  1,
		Branch: 0,
		// CSR accesses serialise the short pipeline.
		System: 2,
	},
	// No dynamic predictor: every control transfer redirects the
	// 6-stage front end at a constant 3-cycle cost — time-predictable
	// by construction, like the paper's predictor-disabled ARM
	// configuration but without the 5-cycle penalty of flushing a
	// deeper pipeline.
	BranchNoPredict:     3,
	HasDynamicPredictor: false,

	HasTCM: false,

	// Sv32-style split: kernel half at 0xC000_0000 with the heap
	// above it; RV64 global pages share kernel mappings across
	// address spaces, so no kernel window is copied per page
	// directory.
	KernelBase:        0xC000_0000,
	KernelHeapBase:    0xC010_0000,
	KernelStack:       0xC00F_F000,
	UserBase:          0x0001_0000,
	KernelWindowBytes: 0,

	// CLIC-style direct vectoring: a constant 6-cycle trap entry and
	// 6-cycle mret, independent of configuration and machine state —
	// the invariant tests assert the constancy.
	IRQEntryCycles: 6,
	IRQExitCycles:  6,
}

func init() {
	Register(ARM1136)
	Register(CVA6RT)
}
