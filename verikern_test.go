package verikern

import (
	"context"
	"strings"
	"testing"

	"verikern/internal/sched"
)

func TestTable1ShapeMatchesPaper(t *testing.T) {
	rows, err := Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byEntry := make(map[EntryPoint]Table1Row)
	for _, r := range rows {
		byEntry[r.Entry] = r
		if r.WithMicros >= r.WithoutMicros {
			t.Errorf("%s: pinning did not help (%.1f vs %.1f)", r.Entry, r.WithMicros, r.WithoutMicros)
		}
		if r.GainPercent <= 0 || r.GainPercent >= 100 {
			t.Errorf("%s: gain %.0f%% out of range", r.Entry, r.GainPercent)
		}
	}
	// The paper's key shape: the interrupt path gains the most from
	// pinning (46% vs 10% for syscalls).
	if byEntry[Interrupt].GainPercent <= byEntry[Syscall].GainPercent {
		t.Errorf("interrupt gain (%.0f%%) not above syscall gain (%.0f%%)",
			byEntry[Interrupt].GainPercent, byEntry[Syscall].GainPercent)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "System call") || !strings.Contains(out, "% gain") {
		t.Error("Table 1 formatting incomplete")
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	rows, err := Table2(context.Background(), 24)
	if err != nil {
		t.Fatal(err)
	}
	byEntry := make(map[EntryPoint]Table2Row)
	for _, r := range rows {
		byEntry[r.Entry] = r
		// Soundness: observed never exceeds computed.
		if r.L2Off.Ratio < 1 || r.L2On.Ratio < 1 {
			t.Errorf("%s: ratio below 1 (unsound bound)", r.Entry)
		}
		// The changes reduce every bound.
		if r.L2Off.ComputedMicros >= r.BeforeL2Off {
			t.Errorf("%s: after (%.1f) not below before (%.1f)", r.Entry,
				r.L2Off.ComputedMicros, r.BeforeL2Off)
		}
		// L2-on computed bounds are worse than L2-off (added
		// pessimism), as in the paper.
		if r.L2On.ComputedMicros <= r.L2Off.ComputedMicros {
			t.Errorf("%s: L2-on computed (%.1f) not above L2-off (%.1f)", r.Entry,
				r.L2On.ComputedMicros, r.L2Off.ComputedMicros)
		}
	}
	// Factor of ~an order of magnitude on the syscall path.
	sys := byEntry[Syscall]
	if ratio := sys.BeforeL2Off / sys.L2Off.ComputedMicros; ratio < 5 {
		t.Errorf("syscall improvement %.1fx below the paper's scale (11.6x)", ratio)
	}
	// Pessimism concentrates on the syscall path, and grows with L2
	// (paper: 3.26 -> 5.42 for syscalls, ~1.04 for short paths).
	if sys.L2On.Ratio <= sys.L2Off.Ratio {
		t.Errorf("syscall ratio did not grow with L2: %.2f vs %.2f", sys.L2On.Ratio, sys.L2Off.Ratio)
	}
	if sys.L2Off.Ratio <= byEntry[UndefinedIn].L2Off.Ratio {
		t.Errorf("syscall ratio (%.2f) not above short-path ratio (%.2f)",
			sys.L2Off.Ratio, byEntry[UndefinedIn].L2Off.Ratio)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Ratio") {
		t.Error("Table 2 formatting incomplete")
	}
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	bars, err := Fig8(context.Background(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 8 {
		t.Fatalf("%d bars, want 8", len(bars))
	}
	get := func(e EntryPoint, l2 bool) float64 {
		for _, b := range bars {
			if b.Entry == e && b.L2Enabled == l2 {
				return b.OverestimationPercent
			}
		}
		t.Fatalf("missing bar %s l2=%v", e, l2)
		return 0
	}
	for _, e := range EntryPoints() {
		if get(e, true) < 0 || get(e, false) < 0 {
			t.Errorf("%s: negative overestimation (unsound)", e)
		}
		// L2 enablement increases model pessimism on every path.
		if get(e, true) <= get(e, false) {
			t.Errorf("%s: L2-on overestimation (%.0f%%) not above L2-off (%.0f%%)",
				e, get(e, true), get(e, false))
		}
	}
	if s := FormatFig8(bars); !strings.Contains(s, "L2 enabled") {
		t.Error("Fig 8 formatting incomplete")
	}
}

func TestFig9ShapeMatchesPaper(t *testing.T) {
	bars, err := Fig9(context.Background(), 24)
	if err != nil {
		t.Fatal(err)
	}
	get := func(e EntryPoint, cfg string) float64 {
		for _, b := range bars {
			if b.Entry == e && b.Config == cfg {
				return b.Normalised
			}
		}
		t.Fatalf("missing bar %s %s", e, cfg)
		return 0
	}
	for _, e := range EntryPoints() {
		if get(e, "Baseline") != 1.0 {
			t.Errorf("%s: baseline not normalised to 1", e)
		}
		// §6.4's qualitative results: enabling the L2 does not help
		// (and can hurt) the cold-cache worst case, because the
		// polluted runs pay the higher 96-cycle memory latency on
		// first touch; the branch predictor gives at most a minor
		// change either way. Our simulator's short paths are more
		// first-touch-dominated than the real kernel's, so the L2
		// penalty runs above the paper's 8% — see EXPERIMENTS.md.
		if l2 := get(e, "L2 enabled"); l2 < 0.7 || l2 > 1.8 {
			t.Errorf("%s: L2-on normalised %.2f outside [0.7, 1.8]", e, l2)
		}
		if bp := get(e, "B-pred enabled"); bp < 0.85 || bp > 1.05 {
			t.Errorf("%s: branch predictor alone changed worst case to %.2fx", e, bp)
		}
		if both := get(e, "L2+B-pred enabled"); both < 0.6 || both > 1.8 {
			t.Errorf("%s: combined config %.2fx outside band", e, both)
		}
	}
	// The paper's headline Fig. 9 observation: the page-fault path's
	// observed worst case increased with the L2 enabled.
	if pf := get(PageFault, "L2 enabled"); pf <= 1.0 {
		t.Errorf("page fault L2-on normalised %.2f; paper reports an increase", pf)
	}
	// The long syscall path re-uses enough lines for L2 hits to
	// offset the higher memory latency, so its L2 penalty is the
	// smallest — the compensation effect behind the paper's ≤8%.
	sysL2 := get(Syscall, "L2 enabled")
	for _, e := range []EntryPoint{Interrupt} {
		if get(e, "L2 enabled") < sysL2 {
			t.Errorf("L2 penalty on %s (%.2f) below syscall's (%.2f); compensation should favour the long path",
				e, get(e, "L2 enabled"), sysL2)
		}
	}
	if s := FormatFig9(bars); !strings.Contains(s, "Baseline") {
		t.Error("Fig 9 formatting incomplete")
	}
}

func TestHeadlineMatchesPaperMagnitude(t *testing.T) {
	off, err := ComputeHeadline(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := ComputeHeadline(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 189,117 cycles / 356 µs with L2 off; 481 µs with L2 on.
	if off.TotalCycles < 90000 || off.TotalCycles > 400000 {
		t.Errorf("L2-off headline %d cycles outside the paper's magnitude (189117)", off.TotalCycles)
	}
	if on.TotalMicros <= off.TotalMicros {
		t.Errorf("L2-on headline (%.0f µs) not above L2-off (%.0f µs)", on.TotalMicros, off.TotalMicros)
	}
	t.Logf("headline: L2 off %d cycles (%.0f µs), L2 on %.0f µs; paper: 189117 cycles (356 µs), 481 µs",
		off.TotalCycles, off.TotalMicros, on.TotalMicros)
}

func TestFastpathCyclesMagnitude(t *testing.T) {
	c, err := FastpathCycles()
	if err != nil {
		t.Fatal(err)
	}
	// The fastpath itself is 230 cycles; the measured syscall also
	// includes entry/exit and a context switch.
	if c < 200 || c > 2500 {
		t.Errorf("fastpath round %d cycles outside the paper's order (200-250 + entry/exit)", c)
	}
}

func TestAnalysisTimesSyscallDominates(t *testing.T) {
	times, err := AnalysisTimes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// §6.3: "the analysis of the latter three entry points completed
	// within seconds, whilst the analysis of the system call entry
	// point took significantly longer."
	for _, e := range []EntryPoint{Interrupt, PageFault, UndefinedIn} {
		if times[Syscall] < times[e] {
			t.Errorf("syscall analysis (%v) faster than %s (%v)", times[Syscall], e, times[e])
		}
	}
}

func TestBootVariants(t *testing.T) {
	for _, v := range []Variant{Original, Modern} {
		sys, err := BootVariant(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if v == Modern && sys.Scheduler().Kind() != sched.BennoBitmap {
			t.Error("modern system not using bitmap scheduler")
		}
		if v == Original && sys.Scheduler().Kind() != sched.Lazy {
			t.Error("original system not using lazy scheduler")
		}
	}
}

func TestAblationL2LockReducesBounds(t *testing.T) {
	rows, err := AblationL2Lock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byEntry := make(map[EntryPoint]L2LockAblation)
	for _, r := range rows {
		byEntry[r.Entry] = r
		if r.LockedL2Cycles >= r.PlainL2Cycles {
			t.Errorf("%s: L2 locking did not reduce the bound (%d vs %d)",
				r.Entry, r.LockedL2Cycles, r.PlainL2Cycles)
		}
	}
	// The interrupt path — short and fetch-dominated — sees the big
	// effect ("L2 cache pinning can be very effective at reducing
	// latency for instruction cache misses", §8); the syscall path
	// is data-dominated (adversarial cap walks), so its gain is
	// small.
	if g := byEntry[Interrupt].ReductionPercent; g < 20 {
		t.Errorf("interrupt reduction %.0f%% below the drastic effect expected", g)
	}
	if byEntry[Interrupt].ReductionPercent <= byEntry[Syscall].ReductionPercent {
		t.Error("interrupt path should benefit more from L2 locking than the syscall path")
	}
}

// TestL2LockSoundness: observed worst cases stay below the bound under
// the locked-kernel configuration too.
func TestL2LockSoundness(t *testing.T) {
	im, err := BuildImage(Modern, false)
	if err != nil {
		t.Fatal(err)
	}
	hw := Hardware{L2Enabled: true, L2LockedKernel: true}
	for _, e := range EntryPoints() {
		bd, err := im.Analyze(hw, e)
		if err != nil {
			t.Fatal(err)
		}
		obs := im.Observe(hw, bd, 32)
		if obs.Max > bd.Cycles {
			t.Errorf("%s: observed %d exceeds bound %d under L2 locking", e, obs.Max, bd.Cycles)
		}
	}
}

// TestFunctionalLatencyWithinAnalysedBound ties the two halves of the
// reproduction together: the worst interrupt latency the functional
// kernel exhibits under the full adversarial workload suite stays
// within the statically analysed worst-case interrupt latency.
func TestFunctionalLatencyWithinAnalysedBound(t *testing.T) {
	headline, err := ComputeHeadline(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Boot(ModernKernel())
	if err != nil {
		t.Fatal(err)
	}
	adv, err := sys.CreateThread("adv", 50)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartThread(adv)
	sys.SetPeriodicTimer(30_000)
	// The §3 attack suite, back to back.
	eps, err := sys.CreateObjects(adv, TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	badged, err := sys.MintBadgedCap(adv, eps[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		w, err := sys.CreateThread("w", 10)
		if err != nil {
			t.Fatal(err)
		}
		sys.StartThread(w)
		sys.Send(w, badged, 1, nil, false)
	}
	if err := sys.RevokeBadge(adv, eps[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateObjects(adv, TypeFrame, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeleteCap(adv, eps[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.InvariantFailure(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().IRQsServiced < 5 {
		t.Fatalf("only %d IRQs serviced", sys.Stats().IRQsServiced)
	}
	if sys.MaxLatency() > headline.TotalCycles {
		t.Errorf("functional worst latency %d exceeds the analysed bound %d",
			sys.MaxLatency(), headline.TotalCycles)
	}
	t.Logf("functional worst latency %d cycles vs analysed bound %d cycles",
		sys.MaxLatency(), headline.TotalCycles)
}

// TestAblationClearChunkFloor reproduces the §3.5 argument: shrinking
// the clearing granularity below 1 KiB cannot improve the worst-case
// latency while the non-preemptible 1 KiB kernel-window copy remains,
// while much larger chunks visibly hurt it.
func TestAblationClearChunkFloor(t *testing.T) {
	rows, err := AblationClearChunk(context.Background(), []uint32{256, 1024, 16384})
	if err != nil {
		t.Fatal(err)
	}
	byChunk := map[uint32]ChunkAblationRow{}
	for _, r := range rows {
		byChunk[r.ChunkBytes] = r
	}
	fine, std, coarse := byChunk[256], byChunk[1024], byChunk[16384]
	// The kernel-window copy (~10640 cycles) floors the worst case
	// regardless of chunk size.
	if fine.WorstLatency < 10_000 || std.WorstLatency < 10_000 {
		t.Errorf("latency floor missing: fine %d, std %d", fine.WorstLatency, std.WorstLatency)
	}
	// Finer chunks give no real latency benefit over 1 KiB…
	if fine.WorstLatency+2_000 < std.WorstLatency {
		t.Errorf("256 B chunks 'improved' latency %d vs %d — the §3.5 argument should forbid this",
			fine.WorstLatency, std.WorstLatency)
	}
	// …while much coarser chunks clearly hurt.
	if coarse.WorstLatency <= std.WorstLatency {
		t.Errorf("16 KiB chunks (%d) not worse than 1 KiB (%d)", coarse.WorstLatency, std.WorstLatency)
	}
	t.Logf("worst latency by chunk: 256B=%d 1KiB=%d 16KiB=%d",
		fine.WorstLatency, std.WorstLatency, coarse.WorstLatency)
}

// TestAblationTCMOrdering: TCM < pinned < baseline on the interrupt
// path (§5.1's mechanisms compared).
func TestAblationTCMOrdering(t *testing.T) {
	r, err := AblationTCM(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !(r.TCMCycles < r.PinnedCycles && r.PinnedCycles < r.BaselineCycles) {
		t.Errorf("expected TCM < pinned < baseline, got %d / %d / %d",
			r.TCMCycles, r.PinnedCycles, r.BaselineCycles)
	}
}
