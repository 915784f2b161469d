package konfig

import (
	"fmt"

	"verikern/internal/arch"
	"verikern/internal/kernel"
	"verikern/internal/sched"
	"verikern/internal/soak"
	"verikern/internal/vspace"
)

// DefaultPoint is the lattice origin on a backend: the modernised
// kernel (benno+bitmap, shadow page tables, preemption points on,
// fastpath, the paper's 1 KiB clearing granularity) on stock hardware
// (no pinning, L2 and predictor off, no TCM). Invariant checking is
// off, matching the soak/probe matrices (it is O(objects) per
// preemption point).
func DefaultPoint(archID string) (Point, error) {
	b, err := arch.Lookup(archID)
	if err != nil {
		return Point{}, err
	}
	p := Point{
		Arch:            b.ID,
		Scheduler:       sched.BennoBitmap,
		VSpace:          vspace.ShadowDesign,
		PreemptDelete:   true,
		PreemptClear:    true,
		Fastpath:        true,
		ClearChunkBytes: kernel.DefaultClearChunkBytes,
	}
	return p, nil
}

// mustDefault is DefaultPoint for ids the caller has already resolved.
func mustDefault(archID string) Point {
	p, err := DefaultPoint(archID)
	if err != nil {
		panic(err)
	}
	return p
}

// NamedPoint is a lattice point with a matrix-row name.
type NamedPoint struct {
	Name  string
	Point Point
}

// Campaign is the soak campaign the named point selects — the one route
// from a configuration to a run. The label is the point's name; the
// backend, the configuration stamp (the point's hash), the functional
// kernel and the pinned bound all derive from the point, which must be
// feasible. The WCET bound is left for the caller (or soak.Run, or the
// fleet coordinator) to fill in.
func (np NamedPoint) Campaign(seed, ops uint64, workers int) (soak.Config, error) {
	p := np.Point
	if err := p.Check(); err != nil {
		return soak.Config{}, err
	}
	return soak.Config{
		Label:     np.Name,
		Arch:      p.Arch,
		ConfigKey: p.Hash(),
		Seed:      seed,
		Ops:       ops,
		Workers:   workers,
		Kernel:    p.KernelConfig(),
		Pinned:    p.Pinned(),
	}, nil
}

// LegacyPoint maps the legacy (kernel generation, pinning) selection —
// the Variant/pinned pair of verikern.BuildImage and the CLIs'
// -variant/-pinned/-pin flags — onto the lattice. The modernised
// generation is DefaultPoint; the original is the lazy scheduler with
// ASID address spaces and every preemption point off; pinning locks one
// L1 way. The name is the matching soak-matrix row label
// ("benno+preempt" or "lazy", "+pinned" appended when pinned), and the
// point is checked feasible.
func LegacyPoint(archID string, modernised, pinned bool) (NamedPoint, error) {
	p, err := DefaultPoint(archID)
	if err != nil {
		return NamedPoint{}, err
	}
	name := "benno+preempt"
	if !modernised {
		p.Scheduler = sched.Lazy
		p.VSpace = vspace.ASIDDesign
		p.PreemptDelete, p.PreemptClear = false, false
		name = "lazy"
	}
	if pinned {
		p.PinnedL1Ways = 1
		name += "+pinned"
	}
	if err := p.Check(); err != nil {
		return NamedPoint{}, fmt.Errorf("konfig: legacy point %q: %w", name, err)
	}
	return NamedPoint{Name: name, Point: p}, nil
}

// LegacySoakMatrix expresses the historical 4-config soak matrix
// (experiments.SoakConfigs) as lattice points: the modernised kernel
// with and without one pinned L1 way, the modernised structures with
// preemption points disabled, and the pre-modification kernel. The
// differential test TestLatticeMatchesLegacyMatrix holds these
// byte-identical to the pre-konfig structs on both backends.
func LegacySoakMatrix(archID string) ([]NamedPoint, error) {
	base, err := DefaultPoint(archID)
	if err != nil {
		return nil, err
	}
	pinned := base
	pinned.PinnedL1Ways = 1
	noPre := base
	noPre.PreemptDelete = false
	noPre.PreemptClear = false
	lazy, err := LegacyPoint(archID, false, false)
	if err != nil {
		return nil, err
	}
	m := []NamedPoint{
		{Name: "benno+preempt+pinned", Point: pinned},
		{Name: "benno+preempt", Point: base},
		{Name: "benno+nopreempt", Point: noPre},
		lazy,
	}
	return checkAll("soak", m)
}

// LegacyProbeMatrix expresses the probe (bound-tightness) matrix
// (experiments.ProbeConfigs): the modernised structures across the
// full preemption × pinning square.
func LegacyProbeMatrix(archID string) ([]NamedPoint, error) {
	base, err := DefaultPoint(archID)
	if err != nil {
		return nil, err
	}
	pinned := base
	pinned.PinnedL1Ways = 1
	noPre := base
	noPre.PreemptDelete = false
	noPre.PreemptClear = false
	noPrePinned := noPre
	noPrePinned.PinnedL1Ways = 1
	m := []NamedPoint{
		{Name: "benno+preempt+pinned", Point: pinned},
		{Name: "benno+preempt", Point: base},
		{Name: "benno+nopreempt+pinned", Point: noPrePinned},
		{Name: "benno+nopreempt", Point: noPre},
	}
	return checkAll("probe", m)
}

// LegacyHardwareMatrix expresses Figure 9's hardware-feature axis
// (experiments.Fig9Configs) as lattice points on the ARM1136: the
// baseline and the L2 / branch-predictor enables. It is ARM1136-only —
// the swept features are that platform's (§6.4).
func LegacyHardwareMatrix() []NamedPoint {
	base := mustDefault(arch.ARM1136ID)
	l2 := base
	l2.L2Enabled = true
	bp := base
	bp.BranchPredictor = true
	both := l2
	both.BranchPredictor = true
	m := []NamedPoint{
		{Name: "Baseline", Point: base},
		{Name: "L2 enabled", Point: l2},
		{Name: "B-pred enabled", Point: bp},
		{Name: "L2+B-pred enabled", Point: both},
	}
	checked, err := checkAll("fig9", m)
	if err != nil {
		panic(err) // static matrix on a built-in backend; cannot fail
	}
	return checked
}

func checkAll(matrix string, m []NamedPoint) ([]NamedPoint, error) {
	for _, np := range m {
		if err := np.Point.Check(); err != nil {
			return nil, fmt.Errorf("konfig: %s matrix point %q: %w", matrix, np.Name, err)
		}
	}
	return m, nil
}
