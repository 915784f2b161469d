// Package verikern reproduces "Improving Interrupt Response Time in a
// Verifiable Protected Microkernel" (Blackham, Shi & Heiser, EuroSys
// 2012) as an executable system: a functional model of an seL4-style
// protected microkernel with the paper's preemption points and data-
// structure redesigns, a cycle-level simulator of its ARM1136/KZM
// evaluation platform, and a from-scratch WCET analysis pipeline
// (whole-program CFG, conservative cache classification, IPET over a
// built-in ILP solver) that computes the interrupt-response bounds the
// paper reports.
//
// The package is the public face of the repository: it exposes the two
// kernel variants ("original" and "modernised"), the platform
// configurations the paper evaluates (L2 on/off, branch predictor
// on/off, L1 way pinning), and drivers that regenerate every table and
// figure of the paper's evaluation (Tables 1–2, Figures 8–9, and the
// §6 headline numbers).
package verikern

import (
	"context"
	"fmt"
	"io"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/kernel"
	"verikern/internal/kimage"
	"verikern/internal/kobj"
	"verikern/internal/konfig"
	"verikern/internal/measure"
	"verikern/internal/obs"
	"verikern/internal/sched"
	"verikern/internal/vspace"
	"verikern/internal/wcet"
)

// Variant selects a kernel design generation.
type Variant int

// Kernel variants.
const (
	// Original is the pre-modification kernel: lazy scheduling,
	// ASID-based address spaces, no preemption points.
	Original Variant = iota
	// Modern applies the paper's changes: Benno scheduling with
	// bitmaps, shadow page tables, preemption points in all
	// long-running operations.
	Modern
)

// String returns the variant name.
func (v Variant) String() string {
	if v == Original {
		return "original"
	}
	return "modern"
}

// Hardware is the evaluation-platform configuration (a 532 MHz
// ARM1136 on a KZM board, §5.1).
type Hardware = arch.Config

// EntryPoint names a kernel exception vector.
type EntryPoint string

// The four analysed kernel entry points (§5.2).
const (
	Syscall     EntryPoint = kbin.EntrySyscall
	Interrupt   EntryPoint = kbin.EntryInterrupt
	PageFault   EntryPoint = kbin.EntryPageFault
	UndefinedIn EntryPoint = kbin.EntryUndefined
)

// EntryPoints lists the analysed vectors in the paper's table order.
func EntryPoints() []EntryPoint {
	return []EntryPoint{Syscall, UndefinedIn, PageFault, Interrupt}
}

// Label returns the paper's row label for an entry point.
func (e EntryPoint) Label() string {
	switch e {
	case Syscall:
		return "System call"
	case Interrupt:
		return "Interrupt"
	case PageFault:
		return "Page fault"
	case UndefinedIn:
		return "Undefined instruction"
	default:
		return string(e)
	}
}

// Image is a built kernel binary plus its infeasible-path constraints.
type Image struct {
	Img         *kimage.Image
	Constraints []wcet.UserConstraint
	Variant     Variant
	Pinned      bool
	// Arch is the hardware backend the image was linked for
	// (arch.ARM1136ID when built via BuildImage).
	Arch string
	// Metrics, when set, collects analysis-pipeline stage timings and
	// counters for every Analyze call on this image.
	Metrics *obs.Metrics
}

// pipelineMetrics, when set via ObservePipeline, is attached to every
// image built by BuildImage, so the table/figure drivers in
// experiments.go report their analysis stages without any API change.
var pipelineMetrics *obs.Metrics

// analysisCache is the process-wide analysis cache behind every
// Analyze call made through this package. Keys are built from input
// content (image fingerprint, entry, hardware config, constraint set),
// so separately built but identical images — the common shape of the
// experiment drivers, which rebuild images per table — share CFGs and
// whole Results.
var analysisCache = wcet.NewCache()

// AnalysisCacheStats returns a snapshot of the shared analysis cache's
// hit/miss counters and entry count.
func AnalysisCacheStats() wcet.CacheStats { return analysisCache.Stats() }

// ResetAnalysisCache drops every cached entry and zeroes the counters.
func ResetAnalysisCache() { analysisCache.Reset() }

// ObservePipeline installs a metrics registry that every subsequent
// BuildImage attaches to its image. Pass nil to disable. The drivers in
// this package (Table1, Table2, Fig8, ...) build images internally;
// this is how callers like cmd/paper see their pipeline stages.
func ObservePipeline(m *obs.Metrics) { pipelineMetrics = m }

// LatticePoint is a typed configuration-lattice point: every paper
// feature as an independently toggleable key, validated by the konfig
// rule engine. The legacy Variant/Hardware matrices in this package are
// named points of this lattice (see konfig.LegacySoakMatrix and
// friends); the sweep drivers walk its feasible region.
type LatticePoint = konfig.Point

// DefaultLatticePoint is the backend's modernised-kernel lattice point
// (every paper improvement on, no pinning, default geometry).
func DefaultLatticePoint(archID string) (LatticePoint, error) {
	return konfig.DefaultPoint(archID)
}

// ParetoBench is the BENCH_pareto.json document emitted by ParetoSweep.
type ParetoBench = konfig.ParetoBench

// ParetoSweep walks each backend's DefaultSpace sub-lattice through the
// process-wide analysis cache and returns the per-entry-point
// WCET-vs-throughput Pareto frontiers. For a fixed seed and op budget
// the document is byte-stable across runs and worker counts.
func ParetoSweep(ctx context.Context, archIDs []string, seed, ops uint64, workers int) (*ParetoBench, error) {
	if len(archIDs) == 0 {
		archIDs = Architectures()
	}
	doc := &ParetoBench{Seed: seed, Ops: ops}
	for _, id := range archIDs {
		sp, err := konfig.DefaultSpace(id)
		if err != nil {
			return nil, err
		}
		sw, err := konfig.Sweep(ctx, analysisCache, sp, seed, ops, workers)
		if err != nil {
			return nil, err
		}
		doc.Archs = append(doc.Archs, *sw)
	}
	return doc, nil
}

// WriteParetoBench serialises a sweep document as the byte-stable
// BENCH_pareto.json artifact.
func WriteParetoBench(w io.Writer, doc *ParetoBench) error {
	return konfig.WriteParetoBench(w, doc)
}

// BuildImage constructs the synthetic kernel binary for a variant,
// optionally with the §4 pin set, linked for the default ARM1136/KZM
// backend: BuildImagePoint of the variant's legacy lattice point
// (konfig.LegacyPoint). Other backends are reached through a point.
func BuildImage(v Variant, pinned bool) (*Image, error) {
	np, err := konfig.LegacyPoint("", v == Modern, pinned)
	if err != nil {
		return nil, err
	}
	im, _, err := BuildImagePoint(np.Point)
	return im, err
}

// BuildImagePoint builds the kernel image a validated lattice point
// selects, plus the Hardware to analyse it under (TCM bases resolved
// from the image layout when the point enables the TCM). An infeasible
// point fails with the rule engine's named diagnostics.
func BuildImagePoint(p LatticePoint) (*Image, Hardware, error) {
	if err := p.Check(); err != nil {
		return nil, Hardware{}, err
	}
	img, cons, hw, err := p.Build()
	if err != nil {
		return nil, Hardware{}, err
	}
	v := Original
	if p.PreemptionPoints() {
		v = Modern
	}
	return &Image{Img: img, Constraints: cons, Variant: v, Pinned: p.Pinned(),
		Arch: img.Backend().ID, Metrics: pipelineMetrics}, hw, nil
}

// Architectures lists the registered hardware backend ids, sorted.
func Architectures() []string { return arch.BackendIDs() }

// Bound is one entry point's analysis outcome.
type Bound struct {
	Entry EntryPoint
	// Cycles is the computed WCET upper bound; Micros its value on
	// the 532 MHz clock.
	Cycles uint64
	Micros float64
	// Result carries the full analysis artefacts (CFG, worst path,
	// ILP sizes, timings).
	Result *wcet.Result
}

// analyzer assembles the wcet.Analyzer every facade entry point uses:
// the image's constraints and metrics, plus the shared analysis cache.
func (im *Image) analyzer(hw Hardware) *wcet.Analyzer {
	a := wcet.New(im.Img, hw)
	a.AddConstraints(im.Constraints...)
	a.Metrics = im.Metrics
	a.Cache = analysisCache
	return a
}

// Analyze computes the WCET bound of one entry point under the given
// hardware configuration.
func (im *Image) Analyze(hw Hardware, e EntryPoint) (Bound, error) {
	return im.AnalyzeContext(context.Background(), hw, e)
}

// AnalyzeContext is Analyze under a context: cancellation is honoured
// between analysis stages.
func (im *Image) AnalyzeContext(ctx context.Context, hw Hardware, e EntryPoint) (Bound, error) {
	r, err := im.analyzer(hw).AnalyzeContext(ctx, string(e))
	if err != nil {
		return Bound{}, err
	}
	return Bound{Entry: e, Cycles: r.Cycles, Micros: r.Micros, Result: r}, nil
}

// AnalyzeAll analyses every entry point of the image in parallel and
// returns the bounds in the image's deterministic entry order.
func (im *Image) AnalyzeAll(ctx context.Context, hw Hardware) ([]Bound, error) {
	results, err := im.analyzer(hw).AnalyzeAll(ctx)
	if err != nil {
		return nil, err
	}
	bounds := make([]Bound, len(results))
	for i, r := range results {
		bounds[i] = Bound{Entry: EntryPoint(r.Entry), Cycles: r.Cycles, Micros: r.Micros, Result: r}
	}
	return bounds, nil
}

// AnalyzeWithLP is Analyze but additionally captures the generated
// integer linear program in Result.LPText — the artefact the paper's
// toolchain handed to its off-the-shelf solver (§5.2).
func (im *Image) AnalyzeWithLP(hw Hardware, e EntryPoint) (Bound, error) {
	a := im.analyzer(hw)
	a.KeepLP = true
	r, err := a.Analyze(string(e))
	if err != nil {
		return Bound{}, err
	}
	return Bound{Entry: e, Cycles: r.Cycles, Micros: r.Micros, Result: r}, nil
}

// VerifyLoopBounds cross-checks the image's loop annotations against
// the §5.3 model-checked bounds, returning an error for any annotation
// the models prove unsound.
func (im *Image) VerifyLoopBounds() error {
	models, err := kbin.LoopModels(kbin.Options{Modernised: im.Variant == Modern, Pinned: im.Pinned, Arch: im.Arch}, im.Img)
	if err != nil {
		return err
	}
	return wcet.VerifyBounds(im.Img, models)
}

// Observe replays a bound's worst-case path on the simulated hardware
// from `runs` adversarial polluted cache states and reports the worst
// observation (§5.4).
func (im *Image) Observe(hw Hardware, b Bound, runs int) measure.Observation {
	return measure.Observe(im.Img, hw, b.Result.Trace, runs)
}

// --- Functional kernel facade ---

// System wraps a booted functional kernel.
type System struct {
	*kernel.Kernel
}

// KernelConfig re-exports the kernel configuration.
type KernelConfig = kernel.Config

// ModernKernel returns the improved kernel's configuration.
func ModernKernel() KernelConfig { return kernel.Modern() }

// OriginalKernel returns the pre-modification configuration.
func OriginalKernel() KernelConfig { return kernel.Original() }

// Boot starts a functional kernel.
func Boot(cfg KernelConfig) (*System, error) {
	k, err := kernel.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{Kernel: k}, nil
}

// BootVariant boots the functional kernel matching an analysis
// variant.
func BootVariant(v Variant) (*System, error) {
	if v == Modern {
		return Boot(kernel.Modern())
	}
	return Boot(kernel.Original())
}

// Re-exported object and subsystem types, forming the public API
// surface for examples and downstream users.
type (
	// TCB is a thread control block.
	TCB = kobj.TCB
	// Endpoint is an IPC endpoint.
	Endpoint = kobj.Endpoint
	// Notification is an asynchronous signalling object.
	Notification = kobj.Notification
	// ObjType enumerates kernel object types.
	ObjType = kobj.ObjType
)

// Re-exported object type constants.
const (
	TypeTCB           = kobj.TypeTCB
	TypeEndpoint      = kobj.TypeEndpoint
	TypeNotification  = kobj.TypeNotification
	TypeCNode         = kobj.TypeCNode
	TypeFrame         = kobj.TypeFrame
	TypePageTable     = kobj.TypePageTable
	TypePageDirectory = kobj.TypePageDirectory
)

// SchedulerKind re-exports the scheduler designs.
type SchedulerKind = sched.Kind

// Scheduler designs (§3.1–3.2).
const (
	LazyScheduler   = sched.Lazy
	BennoScheduler  = sched.Benno
	BitmapScheduler = sched.BennoBitmap
)

// VSpaceDesign re-exports the address-space designs (§3.6).
type VSpaceDesign = vspace.Design

// Address-space designs.
const (
	ASIDVSpace   = vspace.ASIDDesign
	ShadowVSpace = vspace.ShadowDesign
)

// CyclesToMicros converts simulated cycles to microseconds at 532 MHz.
func CyclesToMicros(c uint64) float64 { return arch.CyclesToMicros(c) }

// BuildAdversarialCSpace constructs the Fig. 7 worst-case capability
// space — a chain of radix-1 CNodes so that decoding consumes one
// address bit per level — gives it to the thread as its capability
// space, and returns a capability address whose decode traverses all
// `levels` levels to reach a fresh endpoint. The paper's worst-case
// system call decodes such an address up to 11 times (§6.1).
func (s *System) BuildAdversarialCSpace(t *TCB, levels int) (uint32, error) {
	if levels < 1 || levels > 32 {
		return 0, fmt.Errorf("verikern: levels must be in [1,32], got %d", levels)
	}
	mgr := s.Objects()
	epObjs, err := mgr.Retype(s.RootUntyped(), kobj.TypeEndpoint, 0, 1)
	if err != nil {
		return 0, err
	}
	leaf := kobj.Cap{Type: kobj.CapEndpoint, Obj: epObjs[0], Rights: kobj.RightsAll}
	next := leaf
	for l := 0; l < levels; l++ {
		guard := uint8(0)
		if l == levels-1 {
			// The outermost CNode absorbs the remaining
			// address bits in its guard so the address is
			// exactly 32 bits.
			guard = uint8(32 - levels)
		}
		cnObjs, err := mgr.Retype(s.RootUntyped(), kobj.TypeCNode, 1, 1)
		if err != nil {
			return 0, err
		}
		cn := cnObjs[0].(*kobj.CNode)
		cn.Name = fmt.Sprintf("adv-l%d", levels-l)
		cn.GuardBits = guard
		cn.Slots[1].Cap = next
		next = kobj.Cap{Type: kobj.CapCNode, Obj: cn, Rights: kobj.RightsAll}
	}
	t.CSpaceRoot = next
	// Address: guard zeros, then bit 1 at every level.
	var addr uint32
	for l := 0; l < levels; l++ {
		addr = addr<<1 | 1
	}
	return addr, nil
}
