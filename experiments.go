package verikern

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"verikern/internal/arch"
	"verikern/internal/chaos"
	"verikern/internal/fleet"
	"verikern/internal/konfig"
	"verikern/internal/measure"
	"verikern/internal/obs"
	"verikern/internal/probe"
	"verikern/internal/soak"
	"verikern/internal/wcet"
)

// DefaultRuns is the number of polluted-state measurement runs each
// observed value stands for. The paper takes the maximum of 100,000
// hardware executions (§6.2). In this simulator no address hits a
// pollution line (cache.Pollute), so every run times alike and one
// replay gives them all (measure.Observe): the run count moves no
// observed number.
const DefaultRuns = 64

// Table1Row is one line of Table 1: computed WCET with and without L1
// cache pinning.
type Table1Row struct {
	Entry         EntryPoint
	WithoutMicros float64
	WithMicros    float64
	GainPercent   float64
	WithoutCycles uint64
	WithCycles    uint64
}

// Table1 reproduces Table 1 (§4): the computed worst-case latency per
// entry point with and without pinning frequently used cache lines
// into the L1 caches (modern kernel, L2 disabled) — the ARM1136 rows
// of ArchBounds.
func Table1(ctx context.Context) ([]Table1Row, error) {
	bounds, err := ArchBounds(ctx, "")
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(bounds))
	for _, r := range bounds {
		rows = append(rows, Table1Row{
			Entry:         r.Entry,
			WithoutMicros: r.Micros,
			WithMicros:    r.PinnedMicros,
			GainPercent:   100 * (1 - float64(r.PinnedCycles)/float64(r.Cycles)),
			WithoutCycles: r.Cycles,
			WithCycles:    r.PinnedCycles,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: computed WCET with and without L1 cache pinning (L2 disabled)\n")
	fmt.Fprintf(&b, "%-24s %14s %14s %8s\n", "Event handler", "Without pin", "With pin", "% gain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %11.1f µs %11.1f µs %7.0f%%\n",
			r.Entry.Label(), r.WithoutMicros, r.WithMicros, r.GainPercent)
	}
	return b.String()
}

// Table2Row is one line of Table 2: before/after bounds and the
// computed-vs-observed comparison per L2 setting.
type Table2Row struct {
	Entry EntryPoint
	// BeforeL2Off is the pre-modification computed bound, µs.
	BeforeL2Off float64
	// Computed/Observed/Ratio per L2 setting, after the changes.
	L2Off, L2On Table2Cell
}

// Table2Cell is the (computed, observed, ratio) triple of Table 2.
type Table2Cell struct {
	ComputedMicros float64
	ObservedMicros float64
	Ratio          float64
	ComputedCycles uint64
	ObservedCycles uint64
}

// Table2 reproduces Table 2 (§6): WCET for each kernel entry point
// before and after the paper's changes, computed bounds against
// best-effort observed worst cases, with the L2 disabled and enabled.
func Table2(ctx context.Context, runs int) ([]Table2Row, error) {
	if runs <= 0 {
		runs = DefaultRuns
	}
	before, err := BuildImage(Original, false)
	if err != nil {
		return nil, err
	}
	after, err := BuildImage(Modern, false)
	if err != nil {
		return nil, err
	}
	cell := func(hw Hardware, e EntryPoint) (Table2Cell, error) {
		bd, err := after.AnalyzeContext(ctx, hw, e)
		if err != nil {
			return Table2Cell{}, err
		}
		obs := after.Observe(hw, bd, runs)
		return Table2Cell{
			ComputedMicros: bd.Micros,
			ObservedMicros: obs.Micros(),
			Ratio:          measure.Ratio(bd.Cycles, obs.Max),
			ComputedCycles: bd.Cycles,
			ObservedCycles: obs.Max,
		}, nil
	}
	var rows []Table2Row
	for _, e := range EntryPoints() {
		b, err := before.AnalyzeContext(ctx, Hardware{}, e)
		if err != nil {
			return nil, err
		}
		off, err := cell(Hardware{}, e)
		if err != nil {
			return nil, err
		}
		on, err := cell(Hardware{L2Enabled: true}, e)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Entry: e, BeforeL2Off: b.Micros, L2Off: off, L2On: on})
	}
	return rows, nil
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: WCET per kernel entry point, before and after the changes\n")
	fmt.Fprintf(&b, "%-24s | %10s | %10s %10s %6s | %10s %10s %6s\n",
		"", "Before;off", "Computed", "Observed", "Ratio", "Computed", "Observed", "Ratio")
	fmt.Fprintf(&b, "%-24s | %10s | %28s | %28s\n", "Event handler", "(µs)", "After; L2 disabled (µs)", "After; L2 enabled (µs)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s | %10.1f | %10.1f %10.1f %6.2f | %10.1f %10.1f %6.2f\n",
			r.Entry.Label(), r.BeforeL2Off,
			r.L2Off.ComputedMicros, r.L2Off.ObservedMicros, r.L2Off.Ratio,
			r.L2On.ComputedMicros, r.L2On.ObservedMicros, r.L2On.Ratio)
	}
	return b.String()
}

// Fig8Bar is one bar of Figure 8: the hardware-model overestimation on
// a realisable path.
type Fig8Bar struct {
	Entry     EntryPoint
	L2Enabled bool
	// OverestimationPercent is the gap between the analyser's cost
	// of the measured path and its observed execution time.
	OverestimationPercent float64
}

// Fig8 reproduces Figure 8 (§6.2): the analysis is forced onto the
// exact path that is measured (TraceCycles plays the role of the extra
// ILP constraints), so the remaining gap isolates pipeline/cache-model
// conservatism from path pessimism.
func Fig8(ctx context.Context, runs int) ([]Fig8Bar, error) {
	if runs <= 0 {
		runs = DefaultRuns
	}
	im, err := BuildImage(Modern, false)
	if err != nil {
		return nil, err
	}
	var bars []Fig8Bar
	for _, l2 := range []bool{true, false} {
		hw := Hardware{L2Enabled: l2}
		for _, e := range EntryPoints() {
			bd, err := im.AnalyzeContext(ctx, hw, e)
			if err != nil {
				return nil, err
			}
			computed := wcet.TraceCycles(im.Img, hw, bd.Result.Trace)
			obs := im.Observe(hw, bd, runs)
			bars = append(bars, Fig8Bar{
				Entry:                 e,
				L2Enabled:             l2,
				OverestimationPercent: measure.OverestimationPercent(computed, obs.Max),
			})
		}
	}
	return bars, nil
}

// FormatFig8 renders Figure 8's data series.
func FormatFig8(bars []Fig8Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: hardware-model overestimation on realisable paths (%% over observed)\n")
	fmt.Fprintf(&b, "%-24s %14s %14s\n", "Path", "L2 enabled", "L2 disabled")
	for _, e := range EntryPoints() {
		var on, off float64
		for _, bar := range bars {
			if bar.Entry != e {
				continue
			}
			if bar.L2Enabled {
				on = bar.OverestimationPercent
			} else {
				off = bar.OverestimationPercent
			}
		}
		fmt.Fprintf(&b, "%-24s %13.0f%% %13.0f%%\n", e.Label(), on, off)
	}
	return b.String()
}

// Fig9Bar is one bar of Figure 9: observed worst-case execution time
// under a feature configuration, normalised to the baseline.
type Fig9Bar struct {
	Entry      EntryPoint
	Config     string
	Normalised float64
}

// Fig9Config names one hardware-feature configuration of Figure 9.
type Fig9Config struct {
	Name string
	HW   Hardware
	// Key is the configuration's konfig lattice-point hash.
	Key string
}

// Fig9Configs names the four feature configurations of Figure 9 —
// the hardware axis of the konfig lattice (konfig.LegacyHardwareMatrix)
// rendered as arch.Configs.
var Fig9Configs = func() []Fig9Config {
	var out []Fig9Config
	for _, np := range konfig.LegacyHardwareMatrix() {
		out = append(out, Fig9Config{Name: np.Name, HW: np.Point.Hardware(), Key: np.Point.Hash()})
	}
	return out
}()

// Fig9 reproduces Figure 9 (§6.4): the effect of enabling the L2
// cache and/or the branch predictor on observed worst-case execution
// times, each path normalised to its baseline time.
func Fig9(ctx context.Context, runs int) ([]Fig9Bar, error) {
	if runs <= 0 {
		runs = DefaultRuns
	}
	im, err := BuildImage(Modern, false)
	if err != nil {
		return nil, err
	}
	var bars []Fig9Bar
	for _, e := range EntryPoints() {
		// The measured path is the baseline configuration's worst
		// path, as in the paper's methodology.
		bd, err := im.AnalyzeContext(ctx, Hardware{}, e)
		if err != nil {
			return nil, err
		}
		var baseline uint64
		for _, cfg := range Fig9Configs {
			obs := im.Observe(cfg.HW, bd, runs)
			if cfg.Name == "Baseline" {
				baseline = obs.Max
			}
			bars = append(bars, Fig9Bar{
				Entry:      e,
				Config:     cfg.Name,
				Normalised: float64(obs.Max) / float64(baseline),
			})
		}
	}
	return bars, nil
}

// FormatFig9 renders Figure 9's data series.
func FormatFig9(bars []Fig9Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: observed worst-case time by feature config (normalised to baseline)\n")
	fmt.Fprintf(&b, "%-24s", "Path")
	for _, cfg := range Fig9Configs {
		fmt.Fprintf(&b, " %18s", cfg.Name)
	}
	fmt.Fprintln(&b)
	for _, e := range EntryPoints() {
		fmt.Fprintf(&b, "%-24s", e.Label())
		for _, cfg := range Fig9Configs {
			for _, bar := range bars {
				if bar.Entry == e && bar.Config == cfg.Name {
					fmt.Fprintf(&b, " %18.3f", bar.Normalised)
				}
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Headline is the §6/§8 summary: the worst-case interrupt latency of
// the modernised kernel (syscall bound + interrupt bound).
type Headline struct {
	SyscallCycles   uint64
	InterruptCycles uint64
	TotalCycles     uint64
	TotalMicros     float64
	L2Enabled       bool
}

// ComputeHeadline returns the worst-case interrupt latency under the
// given L2 setting, composed by soak.ResponseBound. The paper reports
// 189,117 cycles (356 µs) with the L2 disabled and 481 µs with it
// enabled.
func ComputeHeadline(ctx context.Context, l2 bool) (Headline, error) {
	im, err := BuildImage(Modern, false)
	if err != nil {
		return Headline{}, err
	}
	hw := Hardware{L2Enabled: l2}
	sys, err := im.AnalyzeContext(ctx, hw, Syscall)
	if err != nil {
		return Headline{}, err
	}
	irq, err := im.AnalyzeContext(ctx, hw, Interrupt)
	if err != nil {
		return Headline{}, err
	}
	total := soak.ResponseBound(sys.Cycles, irq.Cycles, hw)
	return Headline{
		SyscallCycles:   sys.Cycles,
		InterruptCycles: irq.Cycles,
		TotalCycles:     total,
		TotalMicros:     arch.ARM1136.CyclesToMicros(total),
		L2Enabled:       l2,
	}, nil
}

// analysisTimeRuns is how many rounds of analyses AnalysisTimes times.
// Each round analyses every entry point once, after a collection, and
// each entry reports its fastest round: a GC cycle or a busy core
// slows a few milliseconds of one round, not one entry in every round.
const analysisTimeRuns = 5

// AnalysisTimes reproduces the §6.3 computation-time breakdown: the
// wall time each entry point's analysis takes, dominated by the system
// call handler. Every timed analysis runs the whole chain without the
// shared cache, whose Results carry the time of whichever run built
// them.
func AnalysisTimes(ctx context.Context) (map[EntryPoint]time.Duration, error) {
	im, err := BuildImage(Modern, false)
	if err != nil {
		return nil, err
	}
	out := make(map[EntryPoint]time.Duration)
	for i := 0; i < analysisTimeRuns; i++ {
		runtime.GC()
		for _, e := range EntryPoints() {
			a := wcet.New(im.Img, Hardware{})
			a.AddConstraints(im.Constraints...)
			r, err := a.AnalyzeContext(ctx, string(e))
			if err != nil {
				return nil, err
			}
			if i == 0 || r.AnalysisTime < out[e] {
				out[e] = r.AnalysisTime
			}
		}
	}
	return out, nil
}

// L2LockAblation is the §4/§6.4 future-work experiment: locking the
// entire kernel text into the L2 cache.
type L2LockAblation struct {
	Entry          EntryPoint
	PlainL2Cycles  uint64
	LockedL2Cycles uint64
	// ReductionPercent is how much the locked configuration cuts
	// the L2-enabled bound.
	ReductionPercent float64
}

// AblationL2Lock computes the bound per entry point with the L2
// enabled, with and without the kernel locked into it. The paper
// predicts a drastic reduction: instruction fetch misses are bounded
// by the 26-cycle L2 hit instead of the 96-cycle memory access.
func AblationL2Lock(ctx context.Context) ([]L2LockAblation, error) {
	im, err := BuildImage(Modern, false)
	if err != nil {
		return nil, err
	}
	var out []L2LockAblation
	for _, e := range EntryPoints() {
		plain, err := im.AnalyzeContext(ctx, Hardware{L2Enabled: true}, e)
		if err != nil {
			return nil, err
		}
		locked, err := im.AnalyzeContext(ctx, Hardware{L2Enabled: true, L2LockedKernel: true}, e)
		if err != nil {
			return nil, err
		}
		out = append(out, L2LockAblation{
			Entry:            e,
			PlainL2Cycles:    plain.Cycles,
			LockedL2Cycles:   locked.Cycles,
			ReductionPercent: 100 * (1 - float64(locked.Cycles)/float64(plain.Cycles)),
		})
	}
	return out, nil
}

// ChunkAblationRow is one row of the §3.5 preemption-granularity
// sweep.
type ChunkAblationRow struct {
	// ChunkBytes is the clearing granularity between preemption
	// points.
	ChunkBytes uint32
	// WorstLatency is the worst interrupt latency while creating an
	// address space plus a large frame under a periodic timer.
	WorstLatency uint64
	// TotalCycles is the workload's completion time (the throughput
	// cost of finer preemption).
	TotalCycles uint64
}

// AblationClearChunk sweeps the object-clearing preemption granularity
// (§3.5). The paper fixed it at 1 KiB because the non-preemptible
// kernel-window copy of page-directory creation costs a full 1 KiB
// copy anyway: finer clearing chunks cannot lower the worst case until
// that copy is made preemptible. The sweep shows the latency floor.
func AblationClearChunk(ctx context.Context, chunks []uint32) ([]ChunkAblationRow, error) {
	if len(chunks) == 0 {
		chunks = []uint32{256, 512, 1024, 4096, 16384}
	}
	var rows []ChunkAblationRow
	for _, c := range chunks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := ModernKernel()
		cfg.ClearChunkBytes = c
		sys, err := Boot(cfg)
		if err != nil {
			return nil, err
		}
		adv, err := sys.CreateThread("adv", 50)
		if err != nil {
			return nil, err
		}
		sys.StartThread(adv)
		start := sys.Now()
		sys.SetPeriodicTimer(15_000)
		// The workload mixes the preemptible clear (a 1 MiB
		// frame) with page-directory creation, whose kernel-
		// window copy is the non-preemptible floor.
		if _, err := sys.CreateObjects(adv, TypeFrame, 20, 1); err != nil {
			return nil, err
		}
		if _, err := sys.CreateObjects(adv, TypePageDirectory, 0, 1); err != nil {
			return nil, err
		}
		if err := sys.InvariantFailure(); err != nil {
			return nil, err
		}
		rows = append(rows, ChunkAblationRow{
			ChunkBytes:   c,
			WorstLatency: sys.MaxLatency(),
			TotalCycles:  sys.Now() - start,
		})
	}
	return rows, nil
}

// TCMAblation compares the three §4/§5.1 latency-hiding mechanisms on
// the interrupt path: nothing, L1 way-locking (pinning), and
// tightly-coupled memory.
type TCMAblation struct {
	BaselineCycles uint64
	PinnedCycles   uint64
	TCMCycles      uint64
}

// AblationTCM computes the interrupt-path bound under the three
// mechanisms. TCM wins: its accesses are single-cycle by construction,
// where pinned lines still pay cache-hit timing — but it requires the
// code-placement control the paper's pinning approach avoided.
func AblationTCM(ctx context.Context) (TCMAblation, error) {
	var out TCMAblation
	plain, err := konfig.DefaultPoint("")
	if err != nil {
		return out, err
	}
	pinned, tcm := plain, plain
	pinned.PinnedL1Ways = 1
	tcm.TCMEnabled = true
	for _, c := range []struct {
		p   LatticePoint
		dst *uint64
	}{{plain, &out.BaselineCycles}, {pinned, &out.PinnedCycles}, {tcm, &out.TCMCycles}} {
		im, hw, err := BuildImagePoint(c.p)
		if err != nil {
			return out, err
		}
		b, err := im.AnalyzeContext(ctx, hw, Interrupt)
		if err != nil {
			return out, err
		}
		*c.dst = b.Cycles
	}
	return out, nil
}

// FastpathCycles measures a warm IPC fastpath round on the functional
// kernel — the paper's 200–250 cycle figure (§6.1). It returns the
// kernel-cycle cost of one fastpath send.
func FastpathCycles() (uint64, error) {
	sys, err := Boot(ModernKernel())
	if err != nil {
		return 0, err
	}
	server, err := sys.CreateThread("server", 200)
	if err != nil {
		return 0, err
	}
	sys.StartThread(server)
	client, err := sys.CreateThread("client", 100)
	if err != nil {
		return 0, err
	}
	sys.StartThread(client)
	eps, err := sys.CreateObjects(client, TypeEndpoint, 0, 1)
	if err != nil {
		return 0, err
	}
	if err := sys.Recv(server, eps[0]); err != nil {
		return 0, err
	}
	before := sys.Now()
	if err := sys.Send(client, eps[0], 2, nil, false); err != nil {
		return 0, err
	}
	return sys.Now() - before, nil
}

// ArchBoundsRow is one row of the cross-architecture bounds table: one
// entry point's computed WCET on one hardware backend, with and
// without the §4 pin set, in the backend's baseline configuration.
type ArchBoundsRow struct {
	Arch         string     `json:"arch"`
	Entry        EntryPoint `json:"entry"`
	Cycles       uint64     `json:"cycles"`
	Micros       float64    `json:"micros"`
	PinnedCycles uint64     `json:"pinned_cycles"`
	PinnedMicros float64    `json:"pinned_micros"`
}

// ArchBounds computes the modern kernel's per-entry WCET bounds on one
// hardware backend, plain and way-pinned, in the backend's baseline
// configuration (no L2, no dynamic prediction — the features the
// backends disagree on). It is the architecture-portable core of
// Table 1: the ARM1136 rows reproduce that table's cycle counts.
func ArchBounds(ctx context.Context, archID string) ([]ArchBoundsRow, error) {
	build := func(pinned bool) (*Image, Hardware, error) {
		np, err := konfig.LegacyPoint(archID, true, pinned)
		if err != nil {
			return nil, Hardware{}, err
		}
		return BuildImagePoint(np.Point)
	}
	plain, plainHW, err := build(false)
	if err != nil {
		return nil, err
	}
	pinned, pinnedHW, err := build(true)
	if err != nil {
		return nil, err
	}
	var rows []ArchBoundsRow
	for _, e := range EntryPoints() {
		u, err := plain.AnalyzeContext(ctx, plainHW, e)
		if err != nil {
			return nil, err
		}
		p, err := pinned.AnalyzeContext(ctx, pinnedHW, e)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ArchBoundsRow{
			Arch:         plain.Point.Arch,
			Entry:        e,
			Cycles:       u.Cycles,
			Micros:       u.Micros,
			PinnedCycles: p.Cycles,
			PinnedMicros: p.Micros,
		})
	}
	return rows, nil
}

// FormatArchBounds renders one backend's bounds table.
func FormatArchBounds(rows []ArchBoundsRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		be := arch.MustLookup(rows[0].Arch)
		fmt.Fprintf(&b, "Computed WCET on %s (%s), baseline config, plain vs L1 way-pinned\n",
			be.ID, be.Desc)
	}
	fmt.Fprintf(&b, "%-24s %12s %10s %12s %10s\n", "Event handler", "cycles", "µs", "pinned cyc", "µs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %12d %10.1f %12d %10.1f\n",
			r.Entry.Label(), r.Cycles, r.Micros, r.PinnedCycles, r.PinnedMicros)
	}
	return b.String()
}

// --- Soak matrix (latency observatory) ---

// SoakConfig names one configuration of the soak matrix.
type SoakConfig struct {
	Name string
	// Kernel is the functional configuration under soak.
	Kernel KernelConfig
	// Pinned selects the way-pinned image when computing the WCET
	// bound the sentinel enforces.
	Pinned bool
	// Key is the configuration's konfig lattice-point hash, stamped
	// into soak snapshots and fleet batches so mixed-config merges are
	// refused.
	Key string
}

// SoakConfigs is the latency-observatory sweep: the modernised kernel
// with and without L1 pinning, the modernised structures with
// preemption points disabled, and the pre-modification kernel — the
// same before/after axis the paper's evaluation walks, expressed as
// konfig lattice points (konfig.LegacySoakMatrix) on the default
// ARM1136 backend.
func SoakConfigs() []SoakConfig {
	m, err := konfig.LegacySoakMatrix("")
	if err != nil {
		panic(err) // static matrix on the built-in backend; cannot fail
	}
	out := make([]SoakConfig, 0, len(m))
	for _, np := range m {
		out = append(out, SoakConfig{
			Name:   np.Name,
			Kernel: np.Point.KernelConfig(),
			Pinned: np.Point.Pinned(),
			Key:    np.Point.Hash(),
		})
	}
	return out
}

// soakMatrixCampaigns is the soak matrix (konfig.LegacySoakMatrix) on a
// backend as the campaigns SoakReportArch runs, two workers each.
func soakMatrixCampaigns(archID string, seed, ops uint64) ([]soak.Config, error) {
	m, err := konfig.LegacySoakMatrix(archID)
	if err != nil {
		return nil, err
	}
	out := make([]soak.Config, 0, len(m))
	for _, np := range m {
		cfg, err := np.Campaign(seed, ops, 2)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// SoakReportArch soaks every matrix configuration on a hardware backend
// ("arm1136", "cva6rt", ...; empty means ARM1136) for `ops` operations
// at the given seed and returns one report per configuration, in matrix
// order. Each configuration's WCET bound is analysed once for that
// backend's image and timing model; every interrupt-response sample is
// checked against it live, and each worker's op stream is drawn from a
// backend-mixed seed.
func SoakReportArch(ctx context.Context, seed, ops uint64, archID string) ([]*soak.Report, error) {
	cfgs, err := soakMatrixCampaigns(archID, seed, ops)
	if err != nil {
		return nil, err
	}
	var reps []*soak.Report
	for _, cfg := range cfgs {
		rep, err := soak.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("soak %s: %w", cfg.Label, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// SoakBench is the BENCH_soak.json document: one merged observability
// snapshot per soaked configuration, byte-stable for a fixed seed.
type SoakBench struct {
	Seed    uint64          `json:"seed"`
	Ops     uint64          `json:"ops"`
	Configs []*obs.Snapshot `json:"configs"`
}

// NewSoakBench collects the matrix reports' snapshots into the
// BENCH_soak.json document.
func NewSoakBench(seed, ops uint64, reps []*soak.Report) *SoakBench {
	doc := &SoakBench{Seed: seed, Ops: ops}
	for _, r := range reps {
		doc.Configs = append(doc.Configs, r.Snapshot)
	}
	return doc
}

// --- Adversarial probe (directed worst-case search) ---

// ProbeConfig names one configuration of the probe matrix.
type ProbeConfig struct {
	Name string
	// Kernel is the functional configuration under probe.
	Kernel KernelConfig
	// Pinned selects the way-pinned image for both the analysis and
	// the measurement machine.
	Pinned bool
	// Key is the configuration's konfig lattice-point hash.
	Key string
}

// ProbeConfigs is the bound-tightness sweep: the modernised kernel
// structures across the full preemption × pinning matrix
// (konfig.LegacyProbeMatrix on the default ARM1136 backend). Where the
// soak matrix contrasts kernel generations, the probe matrix stresses
// one generation's analysis from every side the bound composition has
// — each cell's observed maximum is pushed toward its own bound.
func ProbeConfigs() []ProbeConfig {
	m, err := konfig.LegacyProbeMatrix("")
	if err != nil {
		panic(err) // static matrix on the built-in backend; cannot fail
	}
	out := make([]ProbeConfig, 0, len(m))
	for _, np := range m {
		out = append(out, ProbeConfig{
			Name:   np.Name,
			Kernel: np.Point.KernelConfig(),
			Pinned: np.Point.Pinned(),
			Key:    np.Point.Hash(),
		})
	}
	return out
}

// TightnessReportArch runs the directed probe over every matrix
// configuration on a hardware backend ("arm1136", "cva6rt", ...; empty
// means ARM1136) with the given seed and per-configuration evaluation
// budget, sharing the process-wide analysis cache so bounds are
// computed once. A returned report with Violations != 0 means an
// observation exceeded its computed bound — an analysis soundness bug;
// the acceptance tests gate on it.
func TightnessReportArch(ctx context.Context, seed uint64, budget int, archID string) ([]*probe.Report, error) {
	m, err := konfig.LegacyProbeMatrix(archID)
	if err != nil {
		return nil, err
	}
	var reps []*probe.Report
	for _, np := range m {
		rep, err := probe.Run(ctx, probe.Config{
			Label:   np.Name,
			Point:   np.Point,
			Seed:    seed,
			Budget:  budget,
			Cache:   analysisCache,
			Metrics: pipelineMetrics,
		})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", np.Name, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// FormatTightnessReport renders the probe reports as the human table
// cmd/kzm-sim prints: per configuration, one row per entry with the
// observed maximum, the computed bound and the tightness ratio.
func FormatTightnessReport(reps []*probe.Report) string {
	var b strings.Builder
	for i, r := range reps {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "probe %s: seed=%d budget=%d violations=%d captures=%d\n",
			r.Label, r.Seed, r.Budget, r.Violations, len(r.Captures))
		fmt.Fprintf(&b, "  %-18s %12s %14s %10s %6s  %s\n",
			"entry", "observed", "bound", "tightness", "evals", "best")
		for _, e := range r.Entries {
			fmt.Fprintf(&b, "  %-18s %12d %14d %10.4f %6d  %s\n",
				e.Name, e.ObservedMax, e.BoundCycles, e.Tightness, e.Evals, e.Best)
		}
	}
	return b.String()
}

// TightnessBench is the BENCH_tightness.json document: one probe
// report per configuration, byte-stable for a fixed seed and budget.
type TightnessBench struct {
	Seed    uint64          `json:"seed"`
	Budget  int             `json:"budget"`
	Configs []*probe.Report `json:"configs"`
}

// --- Fleet observatory (sharded soak farm) ---

// FleetBenchRow is one architecture's fleet-campaign result in the
// BENCH_fleet.json artifact: the merged soak, the transport health,
// and — when the campaign ran under transport chaos — the fault
// injection and recovery telemetry (zero otherwise).
type FleetBenchRow struct {
	Arch  string `json:"arch"`
	Label string `json:"label"`
	// Config is the campaign's konfig lattice-point hash, as stamped
	// into the merged snapshot.
	Config string `json:"config"`
	// ChaosSeed is this campaign's fault-schedule seed; 0 without
	// transport chaos.
	ChaosSeed uint64 `json:"chaos_seed"`
	Workers   int    `json:"workers"`
	Ops       uint64 `json:"ops"`
	// Samples is the merged IRQ sample count; SamplesPerSec the
	// aggregate merge throughput over the campaign wall time (host-
	// dependent, unlike everything else in the row).
	Samples       uint64  `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	WallMS        int64   `json:"wall_ms"`
	SimCycles     uint64  `json:"sim_cycles"`
	BoundCycles   uint64  `json:"bound_cycles"`
	Violations    uint64  `json:"violations"`
	MaxLatency    uint64  `json:"max_latency"`
	// Transport health: streamed batches, checkpoint-gate drops, and
	// worker restarts (one per kill, plus one per lease that transport
	// chaos severed).
	Batches  uint64 `json:"batches"`
	Dropped  uint64 `json:"dropped"`
	Restarts uint64 `json:"restarts"`
	// Fault injection and detection: faults the seeded schedule
	// landed, frames the CRC layer caught, connections quarantined as
	// poisoned.
	FaultsInjected int    `json:"faults_injected"`
	FramesCorrupt  uint64 `json:"frames_corrupt"`
	Quarantined    uint64 `json:"quarantined"`
	// Recovery: worker reconnects, lease-timeout reclaims, and the
	// tail latency of shard recovery (dirty release to successor
	// lease).
	Retries       uint64  `json:"retries"`
	Releases      uint64  `json:"releases"`
	Recoveries    int     `json:"recoveries"`
	RecoveryP99MS float64 `json:"recovery_p99_ms"`
	// Equivalent is the keystone verdict: despite every kill and
	// injected fault, the fleet's merged snapshot is byte-identical to
	// a fault-free single-process soak at the same seed.
	Equivalent bool `json:"equivalent"`
}

// FleetBench is the BENCH_fleet.json document.
type FleetBench struct {
	Seed       uint64          `json:"seed"`
	ChaosSeed  uint64          `json:"chaos_seed"`
	ChaosKills int             `json:"chaos_kills"`
	Ops        uint64          `json:"ops"`
	Workers    int             `json:"workers"`
	Configs    []FleetBenchRow `json:"configs"`
}

// fleetCampaign is the benno+preempt campaign FleetReport shards on
// one backend: the modernised kernel's lattice point, unpinned.
func fleetCampaign(archID string, seed, ops uint64, workers int) (soak.Config, error) {
	np, err := konfig.LegacyPoint(archID, true, false)
	if err != nil {
		return soak.Config{}, err
	}
	return np.Campaign(seed, ops, workers)
}

// FleetReport runs one fleet campaign per architecture backend (the
// modern benno+preempt kernel) in process, over fleet.RunLocal, and
// verifies each merged result against a single-process soak at the
// same seed — the equal-seed equivalence the fleet's merge protocol
// guarantees. Each campaign has a budget of chaosKills worker kills,
// each striking a worker just after its first batch
// (fleet.Config.WithKills); a budget no shard can spend, because every
// shard streams in one batch, is an error (fleet.CheckKills). When
// chaosSeed is non-zero the campaign runs under the fleet's chaos
// profile (fleet.ChaosConfig) with every worker connection wrapped in
// an aggressive fault schedule seeded chaosSeed+i for the i-th
// backend; kills and transport chaos combine. An inequivalent campaign
// is reported, not an error; callers (and CI) gate on the Equivalent
// flags.
func FleetReport(ctx context.Context, seed, ops uint64, workers, chaosKills int, chaosSeed uint64, archIDs []string) (*FleetBench, error) {
	doc := &FleetBench{Seed: seed, ChaosSeed: chaosSeed, ChaosKills: chaosKills, Ops: ops, Workers: workers}
	for i, id := range archIDs {
		campaign, err := fleetCampaign(id, seed, ops, workers)
		if err != nil {
			return nil, err
		}
		cfg := fleet.Config{Spec: fleet.SpecFromConfig(campaign)}
		var eng *chaos.Engine
		if chaosSeed != 0 {
			eng = chaos.New(chaos.Aggressive(chaosSeed + uint64(i)))
			cfg = fleet.ChaosConfig(cfg.Spec, eng.Wrap)
		}
		if err := fleet.CheckKills(cfg, chaosKills); err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := fleet.RunLocal(ctx, cfg, fleet.LocalOptions{ChaosKills: chaosKills})
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %w", id, err)
		}
		wall := time.Since(start)
		snap := c.Snapshot()
		st := c.Status()
		fleetDigest, singleDigest, err := fleet.EquivalenceDigests(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %w", id, err)
		}
		row := FleetBenchRow{
			Arch:          snap.Arch,
			Label:         snap.Label,
			Config:        snap.Config,
			Workers:       workers,
			Ops:           snap.Ops,
			Samples:       snap.IRQ.Count,
			WallMS:        wall.Milliseconds(),
			SimCycles:     snap.SimCycles,
			BoundCycles:   snap.Bound.Cycles,
			Violations:    snap.Bound.Violations,
			MaxLatency:    snap.IRQ.Max,
			Batches:       st.Batches,
			Dropped:       st.Dropped,
			Restarts:      st.Restarts,
			FramesCorrupt: st.FramesCorrupt,
			Quarantined:   st.Quarantined,
			Retries:       st.Retries,
			Releases:      st.Releases,
			Recoveries:    st.Recoveries,
			RecoveryP99MS: st.RecoveryP99MS,
			Equivalent:    bytes.Equal(fleetDigest, singleDigest),
		}
		if eng != nil {
			row.ChaosSeed = eng.Seed()
			row.FaultsInjected = eng.Injected()
		}
		if s := wall.Seconds(); s > 0 {
			row.SamplesPerSec = float64(row.Samples) / s
		}
		doc.Configs = append(doc.Configs, row)
	}
	return doc, nil
}

// FormatFleetReport renders the fleet benchmark as the text table
// cmd/kzm-sim prints: the merge and transport columns, then the fault
// injection and recovery columns.
func FormatFleetReport(doc *FleetBench) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet observatory: %d workers, %d ops, seed %d, %d chaos kills, chaos seed %d\n",
		doc.Workers, doc.Ops, doc.Seed, doc.ChaosKills, doc.ChaosSeed)
	fmt.Fprintf(&b, "%-10s %-16s %10s %12s %10s %9s %8s %8s %7s %8s %6s %8s %9s %8s %11s %s\n",
		"arch", "label", "samples", "samples/s", "max cyc", "batches", "drops", "restarts",
		"faults", "corrupt", "quar", "retries", "releases", "recover", "rec p99 ms", "equivalent")
	for _, r := range doc.Configs {
		fmt.Fprintf(&b, "%-10s %-16s %10d %12.0f %10d %9d %8d %8d %7d %8d %6d %8d %9d %8d %11.1f %v\n",
			r.Arch, r.Label, r.Samples, r.SamplesPerSec, r.MaxLatency, r.Batches, r.Dropped, r.Restarts,
			r.FaultsInjected, r.FramesCorrupt, r.Quarantined, r.Retries, r.Releases, r.Recoveries, r.RecoveryP99MS, r.Equivalent)
	}
	return b.String()
}
