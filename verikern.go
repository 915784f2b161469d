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
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/kernel"
	"verikern/internal/kimage"
	"verikern/internal/kobj"
	"verikern/internal/konfig"
	"verikern/internal/measure"
	"verikern/internal/obs"
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
// Images built through BuildImage and BuildImagePoint share Img and
// Constraints with every other image of the same build options, so
// both must be treated as immutable.
type Image struct {
	Img         *kimage.Image
	Constraints []wcet.UserConstraint
	// Point is the lattice point the image was built from: its kernel
	// generation, pin set and hardware backend.
	Point LatticePoint
	// Metrics, when set, collects analysis-pipeline stage timings and
	// counters for every Analyze call on this image.
	Metrics *obs.Metrics
}

// pipelineMetrics, when set via ObservePipeline, is attached to every
// image built by BuildImage, so the table/figure drivers in
// experiments.go report their analysis stages without any API change.
var pipelineMetrics *obs.Metrics

// AnalysisCacheStats returns a snapshot of the shared analysis cache's
// hit/miss counters and entry count.
func AnalysisCacheStats() wcet.CacheStats { return sess.analyses.Stats() }

// ResetAnalysisCache empties the regeneration session: every cached
// analysis, built image, compiled replay and observation, and every
// counter of the analysis cache and the observation memo.
func ResetAnalysisCache() { sess.reset() }

// ObservationCacheStats returns a snapshot of the observation memo
// behind Image.Observe: campaigns served from it (Hits, a campaign that
// waited for a concurrent identical one included), campaigns replayed
// (Misses), and Observations held (Entries).
func ObservationCacheStats() wcet.CacheStats { return sess.observations.stats() }

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
// the document is byte-stable across runs and worker counts. The
// analyses report to the metrics set by ObservePipeline.
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
		sw, err := konfig.Sweep(ctx, sess.analyses, pipelineMetrics, sp, seed, ops, workers)
		if err != nil {
			return nil, err
		}
		doc.Archs = append(doc.Archs, *sw)
	}
	return doc, nil
}

// WriteBench serialises a BENCH_*.json artifact document (SoakBench,
// TightnessBench, ParetoBench, FleetBench) as indented
// JSON. Map keys are emitted sorted, so the bytes are a pure function
// of the document.
func WriteBench(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
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
//
// The session builds each kbin.Options key once (a concurrent caller
// waits for the first build) and shares the immutable kernel binary and
// constraint slice; each call returns a fresh Image carrying the
// point and the metrics ObservePipeline currently sets. The metrics
// count builds (verikern.image_builds) and images served from the
// session (verikern.image_build_hits).
func BuildImagePoint(p LatticePoint) (*Image, Hardware, error) {
	if err := p.Check(); err != nil {
		return nil, Hardware{}, err
	}
	opts := p.KbinOptions()
	b, hit, err := sess.images.get(opts.Canonical(), func() (builtImage, error) {
		img, cons, err := kbin.Build(opts)
		return builtImage{img: img, cons: cons}, err
	})
	if err != nil {
		return nil, Hardware{}, err
	}
	m := pipelineMetrics
	countLookup(m, hit, "verikern.image_build_hits", "verikern.image_builds")
	hw, err := p.HardwareFor(b.img)
	if err != nil {
		return nil, Hardware{}, err
	}
	// A clipped slice makes a caller's append copy rather than write
	// into the shared backing array.
	return &Image{Img: b.img, Constraints: slices.Clip(b.cons), Point: p, Metrics: m}, hw, nil
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
	a.Cache = sess.analyses
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
// the models prove unsound. It reports how many annotated loops were
// checked, and names those no model covers.
func (im *Image) VerifyLoopBounds() (checked int, unmodelled []string, err error) {
	models, err := kbin.LoopModels(im.Point.KbinOptions(), im.Img)
	if err != nil {
		return 0, nil, err
	}
	unmodelled, err = wcet.VerifyBounds(im.Img, models)
	return len(models), unmodelled, err
}

// Observe replays a bound's worst-case path on the simulated hardware
// from an adversarial polluted cache state and reports it as the worst
// of `runs` runs, which all time alike (§5.4, measure.Observe).
// Identical campaigns share one Observation through the session's
// observation memo, which runs each campaign once (a concurrent caller
// of the same campaign waits for the first) and which
// ResetAnalysisCache clears. A campaign replays the session's compiled
// replay of the path (measure.ObserveReplay). The image's metrics count
// replayed campaigns (measure.campaigns) and shared ones
// (measure.campaign_hits).
func (im *Image) Observe(hw Hardware, b Bound, runs int) measure.Observation {
	key := observationKey{result: b.Result, image: im.Img.Fingerprint(),
		hw: hw.Backend().Key() + "|" + hw.CanonicalKey(), runs: runs}
	o, hit, _ := sess.observations.get(key, func() (measure.Observation, error) { // cannot fail
		return measure.ObserveReplay(im.Img, hw, sess.replay(b.Result, im.Metrics), runs), nil
	})
	countLookup(im.Metrics, hit, "measure.campaign_hits", "measure.campaigns")
	return o
}

// traceCycles is wcet.TraceCycles of a bound's worst-case path, costed
// along the session's compiled replay of it (wcet.ReplayCycles).
func (im *Image) traceCycles(hw Hardware, b Bound) uint64 {
	return wcet.ReplayCycles(im.Img, hw, sess.replay(b.Result, im.Metrics))
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

// TCB re-exports the thread control block, for examples and downstream
// users.
type TCB = kobj.TCB

// Re-exported object type constants.
const (
	TypeEndpoint      = kobj.TypeEndpoint
	TypeNotification  = kobj.TypeNotification
	TypeFrame         = kobj.TypeFrame
	TypePageTable     = kobj.TypePageTable
	TypePageDirectory = kobj.TypePageDirectory
)

// CyclesToMicros converts simulated cycles to microseconds at 532 MHz.
func CyclesToMicros(c uint64) float64 { return arch.ARM1136.CyclesToMicros(c) }

// BuildAdversarialCSpace constructs the Fig. 7 worst-case capability
// space — a chain of radix-1 CNodes so that decoding consumes one
// address bit per level — gives it to the thread as its capability
// space, and returns a capability address whose decode traverses all
// `levels` levels to reach a fresh endpoint. The paper's worst-case
// system call decodes such an address up to 11 times (§6.1).
func (s *System) BuildAdversarialCSpace(t *TCB, levels int) (uint32, error) {
	if levels < 1 || levels > kobj.CapAddrBits {
		return 0, fmt.Errorf("verikern: levels must be in [1,%d], got %d", kobj.CapAddrBits, levels)
	}
	mgr := s.Objects()
	epObjs, err := mgr.Retype(s.RootUntyped(), kobj.TypeEndpoint, 0, 1)
	if err != nil {
		return 0, err
	}
	leaf := kobj.Cap{Type: kobj.CapEndpoint, Obj: epObjs[0], Rights: kobj.RightsAll}
	root, addr, err := mgr.DecodeChain(s.RootUntyped(), leaf, levels,
		func(l int) string { return fmt.Sprintf("adv-l%d", l) })
	if err != nil {
		return 0, err
	}
	t.CSpaceRoot = root
	return addr, nil
}
