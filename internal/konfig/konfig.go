// Package konfig is the declarative configuration lattice of the
// simulated system: every design knob the paper varies — scheduler
// generation, address-space design, each preemption point, clearing
// granularity, IPC fastpath, L1 way-pinning, L2 and branch-predictor
// enables, TCM, cache geometry and replacement policy — is an
// independently assignable typed key, so each claim is individually
// attributable instead of being bundled into a hand-picked matrix.
//
// A lattice point (Point) is one complete key assignment. A rule
// engine (rules.go) rejects unverifiable or physically-impossible
// assignments with named-rule diagnostics; points.go expresses the
// legacy 4-config matrices as named lattice points, proven equivalent
// to the pre-konfig structs by the differential tests; sweep.go walks
// a feasible sub-lattice and emits per-entry-point WCET-vs-throughput
// Pareto frontiers as the byte-stable BENCH_pareto.json artifact.
//
// Points translate losslessly onto the structs the rest of the stack
// consumes — kernel.Config, arch.Config, kbin.Options — and hash to a
// stable identity (Point.Hash) that the soak/fleet layers stamp into
// snapshots, captures and wire batches so observations from different
// configurations can never be merged.
package konfig

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"verikern/internal/arch"
	"verikern/internal/cache"
	"verikern/internal/kbin"
	"verikern/internal/kernel"
	"verikern/internal/kimage"
	"verikern/internal/sched"
	"verikern/internal/vspace"
	"verikern/internal/wcet"
)

// Point is one complete assignment of the configuration lattice: the
// kernel-design axis (scheduler, vspace, preemption points, fastpath,
// clearing granularity, invariant checking) and the hardware axis
// (pinning, L2, predictor, TCM, geometry, replacement policy) on one
// backend. The zero Point is NOT valid; start from DefaultPoint.
type Point struct {
	// Arch is the hardware backend id (internal/arch registry).
	Arch string

	// Kernel-design axis.
	Scheduler       sched.Kind
	VSpace          vspace.Design
	PreemptDelete   bool
	PreemptClear    bool
	SplitReply      bool
	Fastpath        bool
	ClearChunkBytes uint32
	CheckInvariants bool

	// Hardware axis. The geometry keys (L1IWays, L1DWays, L2Ways) are
	// part of the assignment so physically-impossible requests are
	// expressible — and rejected by name — rather than silently
	// coerced; their only feasible value is the backend's own.
	L1IWays, L1DWays, L2Ways int
	PinnedL1Ways             int
	L2Enabled                bool
	L2LockedKernel           bool
	BranchPredictor          bool
	TCMEnabled               bool
	Replacement              cache.Policy
}

// Key is one typed lattice key: a name, accessors over Point, and the
// per-backend feasible value domain (before cross-key rules).
type Key struct {
	// Name is the stable key name ("sched.policy", "cache.l2.enabled").
	Name string
	// Doc is a one-line description for -konfig help and the docs.
	Doc string
	// Get renders the key's value in a point.
	Get func(Point) string
	// Set parses a raw value into the point; the error names the key.
	Set func(*Point, string) error
	// Domain lists the feasible raw values on a backend, in canonical
	// order. Cross-key feasibility (e.g. pinned ways under TCM) is the
	// rule engine's job; Domain is the per-key projection.
	Domain func(*arch.Backend) []string
}

func boolDomain(*arch.Backend) []string { return []string{"false", "true"} }

func gatedBoolDomain(has func(*arch.Backend) bool) func(*arch.Backend) []string {
	return func(b *arch.Backend) []string {
		if has(b) {
			return []string{"false", "true"}
		}
		return []string{"false"}
	}
}

// keys returns the key registry bound to one point, in canonical
// order. The order is the hash and listing order; append new keys at
// the position that keeps related keys adjacent, never reuse a name.
func keys(p *Point) []Key {
	return []Key{
		{
			Name: "arch",
			Doc:  "hardware backend id",
			Get:  func(p Point) string { return p.Arch },
			Set: func(p *Point, v string) error {
				b, err := arch.Lookup(v)
				if err != nil {
					return err
				}
				p.Arch = b.ID
				return nil
			},
			Domain: func(b *arch.Backend) []string { return []string{b.ID} },
		},
		{
			Name:   "sched.policy",
			Doc:    "scheduler design: lazy | benno | benno+bitmap (§3.1–3.2)",
			Get:    func(p Point) string { return p.Scheduler.String() },
			Set:    func(p *Point, v string) error { k, err := sched.ParseKind(v); p.Scheduler = k; return err },
			Domain: func(*arch.Backend) []string { return kindNames() },
		},
		{
			Name:   "vspace.design",
			Doc:    "address-space design: asid | shadow (§3.6)",
			Get:    func(p Point) string { return p.VSpace.String() },
			Set:    func(p *Point, v string) error { d, err := vspace.ParseDesign(v); p.VSpace = d; return err },
			Domain: func(*arch.Backend) []string { return designNames() },
		},
		{
			Name:   "preempt.delete",
			Doc:    "preemption points in deletion/revocation walks (§3.3–3.4)",
			Get:    func(p Point) string { return strconv.FormatBool(p.PreemptDelete) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.PreemptDelete, v) },
			Domain: boolDomain,
		},
		{
			Name:   "preempt.clear",
			Doc:    "preemption points in object clearing (§3.5)",
			Get:    func(p Point) string { return strconv.FormatBool(p.PreemptClear) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.PreemptClear, v) },
			Domain: boolDomain,
		},
		{
			Name:   "preempt.split-reply",
			Doc:    "future-work preemption point between ReplyRecv's send and receive phases (§6.1, §8)",
			Get:    func(p Point) string { return strconv.FormatBool(p.SplitReply) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.SplitReply, v) },
			Domain: boolDomain,
		},
		{
			Name:   "ipc.fastpath",
			Doc:    "IPC fastpath (§6.1)",
			Get:    func(p Point) string { return strconv.FormatBool(p.Fastpath) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.Fastpath, v) },
			Domain: boolDomain,
		},
		{
			Name: "clear.chunk-bytes",
			Doc:  "object-clearing preemption granularity in bytes (§3.5)",
			Get:  func(p Point) string { return strconv.FormatUint(uint64(p.ClearChunkBytes), 10) },
			Set: func(p *Point, v string) error {
				n, err := strconv.ParseUint(v, 10, 32)
				if err != nil {
					return err
				}
				p.ClearChunkBytes = uint32(n)
				return nil
			},
			Domain: func(*arch.Backend) []string {
				return []string{"256", "512", "1024", "2048", "4096", "16384"}
			},
		},
		{
			Name:   "debug.check-invariants",
			Doc:    "run the invariant suite at every operation boundary and preemption point",
			Get:    func(p Point) string { return strconv.FormatBool(p.CheckInvariants) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.CheckInvariants, v) },
			Domain: boolDomain,
		},
		{
			Name:   "cache.l1i.ways",
			Doc:    "L1 instruction-cache associativity (backend-fixed)",
			Get:    func(p Point) string { return strconv.Itoa(p.L1IWays) },
			Set:    func(p *Point, v string) error { return parseIntInto(&p.L1IWays, v) },
			Domain: func(b *arch.Backend) []string { return []string{strconv.Itoa(b.L1I.Ways)} },
		},
		{
			Name:   "cache.l1d.ways",
			Doc:    "L1 data-cache associativity (backend-fixed)",
			Get:    func(p Point) string { return strconv.Itoa(p.L1DWays) },
			Set:    func(p *Point, v string) error { return parseIntInto(&p.L1DWays, v) },
			Domain: func(b *arch.Backend) []string { return []string{strconv.Itoa(b.L1D.Ways)} },
		},
		{
			Name: "cache.l2.ways",
			Doc:  "unified L2 associativity (backend-fixed; 0 without an L2)",
			Get:  func(p Point) string { return strconv.Itoa(p.L2Ways) },
			Set:  func(p *Point, v string) error { return parseIntInto(&p.L2Ways, v) },
			Domain: func(b *arch.Backend) []string {
				if b.HasL2 {
					return []string{strconv.Itoa(b.L2.Ways)}
				}
				return []string{"0"}
			},
		},
		{
			Name: "cache.l1.pinned-ways",
			Doc:  "L1 ways locked for the pinned interrupt path (§4)",
			Get:  func(p Point) string { return strconv.Itoa(p.PinnedL1Ways) },
			Set:  func(p *Point, v string) error { return parseIntInto(&p.PinnedL1Ways, v) },
			Domain: func(b *arch.Backend) []string {
				var out []string
				for i := 0; i < b.MaxPinnableWays(false); i++ {
					out = append(out, strconv.Itoa(i))
				}
				return out
			},
		},
		{
			Name:   "cache.l2.enabled",
			Doc:    "unified L2 cache enable (§6.4)",
			Get:    func(p Point) string { return strconv.FormatBool(p.L2Enabled) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.L2Enabled, v) },
			Domain: gatedBoolDomain(func(b *arch.Backend) bool { return b.HasL2 }),
		},
		{
			Name:   "cache.l2.lock-kernel",
			Doc:    "lock the whole kernel text into the L2 (§6.4 future work)",
			Get:    func(p Point) string { return strconv.FormatBool(p.L2LockedKernel) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.L2LockedKernel, v) },
			Domain: gatedBoolDomain(func(b *arch.Backend) bool { return b.HasL2 }),
		},
		{
			Name:   "predictor.dynamic",
			Doc:    "dynamic branch predictor enable (§5.1)",
			Get:    func(p Point) string { return strconv.FormatBool(p.BranchPredictor) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.BranchPredictor, v) },
			Domain: gatedBoolDomain(func(b *arch.Backend) bool { return b.HasDynamicPredictor }),
		},
		{
			Name:   "mem.tcm",
			Doc:    "repurpose one L1 way per side as tightly-coupled memory (§5.1)",
			Get:    func(p Point) string { return strconv.FormatBool(p.TCMEnabled) },
			Set:    func(p *Point, v string) error { return parseBoolInto(&p.TCMEnabled, v) },
			Domain: gatedBoolDomain(func(b *arch.Backend) bool { return b.HasTCM }),
		},
		{
			Name: "cache.replacement",
			Doc:  "cache replacement policy (the analysed deployments use round-robin)",
			Get:  func(p Point) string { return p.Replacement.String() },
			Set: func(p *Point, v string) error {
				pol, err := cache.ParsePolicy(v)
				p.Replacement = pol
				return err
			},
			// The raw model offers pseudo-random and LRU too, but only
			// round-robin is verifiable end to end; the rule engine
			// names the reason (rule replacement-verifiable).
			Domain: func(*arch.Backend) []string { return []string{cache.RoundRobin.String()} },
		},
	}
}

func parseBoolInto(dst *bool, v string) error {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return err
	}
	*dst = b
	return nil
}

func parseIntInto(dst *int, v string) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

func kindNames() []string {
	var out []string
	for _, k := range sched.Kinds() {
		out = append(out, k.String())
	}
	return out
}

func designNames() []string {
	var out []string
	for _, d := range vspace.Designs() {
		out = append(out, d.String())
	}
	return out
}

// Keys returns the key registry (bound to a throwaway point for the
// accessors), in canonical order.
func Keys() []Key {
	var p Point
	return keys(&p)
}

// KeyNames returns the key names in canonical order.
func KeyNames() []string {
	var out []string
	for _, k := range Keys() {
		out = append(out, k.Name)
	}
	return out
}

// Set assigns one key by name, returning the updated point.
func (p Point) Set(name, value string) (Point, error) {
	for _, k := range keys(&p) {
		if k.Name == name {
			if err := k.Set(&p, value); err != nil {
				return p, fmt.Errorf("konfig: key %s: %w", name, err)
			}
			return p, nil
		}
	}
	return p, fmt.Errorf("konfig: unknown key %q (known: %s)", name, strings.Join(KeyNames(), ", "))
}

// Get reads one key by name.
func (p Point) Get(name string) (string, error) {
	for _, k := range keys(&p) {
		if k.Name == name {
			return k.Get(p), nil
		}
	}
	return "", fmt.Errorf("konfig: unknown key %q", name)
}

// Assignments returns the full key assignment as a map, for artifact
// rows and diagnostics. JSON-marshalling the map is deterministic
// (encoding/json sorts string keys).
func (p Point) Assignments() map[string]string {
	out := make(map[string]string, len(Keys()))
	for _, k := range keys(&p) {
		out[k.Name] = k.Get(p)
	}
	return out
}

// Listing renders the assignment as "k=v" pairs in canonical key
// order — the hash pre-image and the -konfig echo format.
func (p Point) Listing() string {
	var b strings.Builder
	for i, k := range keys(&p) {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k.Name)
		b.WriteByte('=')
		b.WriteString(k.Get(p))
	}
	return b.String()
}

// Hash is the point's stable identity: 16 hex digits of the SHA-256
// over the backend's versioned key and the canonical listing. Every
// assignable key participates, so two points hash equal iff they are
// the same lattice point on the same backend revision. Soak snapshots,
// flight captures and fleet batches carry it so mixed-config merges
// are refused (see internal/soak, internal/fleet).
func (p Point) Hash() string {
	prefix := p.Arch
	if b, err := arch.Lookup(p.Arch); err == nil {
		prefix = b.Key()
	}
	sum := sha256.Sum256([]byte(prefix + "|" + p.Listing()))
	return fmt.Sprintf("%x", sum[:8])
}

// Backend resolves the point's hardware backend.
func (p Point) Backend() (*arch.Backend, error) {
	return arch.Lookup(p.Arch)
}

// PreemptionPoints reports whether the kernel generation has the §3
// preemption points: the lattice splits them per site (delete, clear)
// but the analyzable image generations are all-on or all-off (rule
// preempt-points-analyzable), so the derived kernel.Config flag is
// their conjunction.
func (p Point) PreemptionPoints() bool { return p.PreemptDelete && p.PreemptClear }

// Pinned reports whether the point uses the way-pinned interrupt path.
func (p Point) Pinned() bool { return p.PinnedL1Ways > 0 }

// KernelConfig derives the functional-kernel configuration.
func (p Point) KernelConfig() kernel.Config {
	return kernel.Config{
		Scheduler:        p.Scheduler,
		VSpace:           p.VSpace,
		PreemptionPoints: p.PreemptionPoints(),
		Fastpath:         p.Fastpath,
		SplitSendReceive: p.SplitReply,
		ClearChunkBytes:  p.ClearChunkBytes,
		CheckInvariants:  p.CheckInvariants,
	}
}

// Hardware derives the platform configuration. For TCM-enabled points
// the ITCM/DTCM windows depend on the built image; Build fills them
// from kbin.TCMConfig.
func (p Point) Hardware() arch.Config {
	return arch.Config{
		Arch:            p.Arch,
		L2Enabled:       p.L2Enabled,
		BranchPredictor: p.BranchPredictor,
		PinnedL1Ways:    p.PinnedL1Ways,
		L2LockedKernel:  p.L2LockedKernel,
		TCMEnabled:      p.TCMEnabled,
	}
}

// KbinOptions derives the kernel-image build options. The image
// generation follows the preemption points (the modernised image
// carries the §3 restructuring), pinning follows the pinned-ways key.
func (p Point) KbinOptions() kbin.Options {
	return kbin.Options{
		Modernised: p.PreemptionPoints(),
		Pinned:     p.Pinned(),
		TCM:        p.TCMEnabled,
		Arch:       p.Arch,
	}
}

// Build builds the kernel image the point selects, with its manual
// infeasible-path constraints, and the hardware configuration to
// analyse it under, the ITCM/DTCM bases resolved from the image layout
// when the point enables the TCM. It does not validate the point.
func (p Point) Build() (*kimage.Image, []wcet.UserConstraint, arch.Config, error) {
	img, cons, err := kbin.Build(p.KbinOptions())
	if err != nil {
		return nil, nil, arch.Config{}, err
	}
	hw := p.Hardware()
	if p.TCMEnabled {
		if hw.ITCMBase, hw.DTCMBase, err = kbin.TCMConfig(img); err != nil {
			return nil, nil, arch.Config{}, err
		}
	}
	return img, cons, hw, nil
}

// AnalysisKey is the point's projection onto the WCET-analysis inputs:
// the canonical image options and the canonical hardware config. Keys
// that do not change the built image or the timing model — scheduler
// flavour within a generation, vspace design, fastpath, clearing
// granularity, invariant checking — project out, so the sweep computes
// one analysis per projection and the analysis cache shares the rest.
func (p Point) AnalysisKey() string {
	return p.KbinOptions().Canonical() + "||" + p.Hardware().CanonicalKey()
}
