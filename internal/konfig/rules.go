package konfig

import (
	"fmt"
	"strings"

	"verikern/internal/arch"
	"verikern/internal/sched"
)

// Rule is one named feasibility rule. Rules reject two classes of
// assignment: physically impossible ones (a feature the backend does
// not have, pinning past the associativity) and unverifiable ones —
// combinations no analyzable image generation or validated model
// exists for, so a WCET bound claimed under them would be vacuous.
type Rule struct {
	// Name is the stable rule identifier surfaced in diagnostics and
	// asserted by the per-rule counterexample tests.
	Name string
	// Doc is the one-line rationale shown in docs/config-lattice.md.
	Doc string
	// check returns a non-nil error describing the violation. The
	// backend is the point's resolved backend (rule arch-registered
	// guarantees resolution before any other rule runs).
	check func(p Point, b *arch.Backend) error
}

// RuleArchRegistered is the bootstrap rule: every other rule needs the
// resolved backend, so an unknown backend short-circuits validation.
const RuleArchRegistered = "arch-registered"

// rules is the rule table, in evaluation order.
var rules = []Rule{
	{
		Name: "l2-requires-backend-l2",
		Doc:  "cache.l2.enabled needs a backend with a unified L2",
		check: func(p Point, b *arch.Backend) error {
			if p.L2Enabled && !b.HasL2 {
				return fmt.Errorf("cache.l2.enabled=true but backend %s has no L2", b.ID)
			}
			return nil
		},
	},
	{
		Name: "l2-lock-requires-l2-enabled",
		Doc:  "locking the kernel into the L2 needs the L2 present and enabled; a lock key on a disabled L2 would silently do nothing",
		check: func(p Point, b *arch.Backend) error {
			if p.L2LockedKernel && (!b.HasL2 || !p.L2Enabled) {
				return fmt.Errorf("cache.l2.lock-kernel=true but the L2 is %s", map[bool]string{true: "disabled", false: "absent"}[b.HasL2])
			}
			return nil
		},
	},
	{
		Name: "predictor-requires-backend-predictor",
		Doc:  "predictor.dynamic needs a core with a dynamic branch predictor",
		check: func(p Point, b *arch.Backend) error {
			if p.BranchPredictor && !b.HasDynamicPredictor {
				return fmt.Errorf("predictor.dynamic=true but backend %s has no dynamic predictor", b.ID)
			}
			return nil
		},
	},
	{
		Name: "tcm-requires-backend-tcm",
		Doc:  "mem.tcm needs a core whose L1 ways can be repurposed as tightly-coupled memory",
		check: func(p Point, b *arch.Backend) error {
			if p.TCMEnabled && !b.HasTCM {
				return fmt.Errorf("mem.tcm=true but backend %s has no TCM", b.ID)
			}
			return nil
		},
	},
	{
		Name: "pin-within-associativity",
		Doc:  "pinned L1 ways must leave at least one victim way in the narrower L1 (one more is lost to TCM when enabled)",
		check: func(p Point, b *arch.Backend) error {
			max := b.MaxPinnableWays(p.TCMEnabled)
			if p.PinnedL1Ways < 0 || p.PinnedL1Ways >= max {
				return fmt.Errorf("cache.l1.pinned-ways=%d outside [0,%d) on backend %s (tcm=%t)", p.PinnedL1Ways, max, b.ID, p.TCMEnabled)
			}
			return nil
		},
	},
	{
		Name: "chunk-power-of-two",
		Doc:  "the clearing granularity must be an explicit power of two in [256, 16384] bytes — the range the preemption-point analysis's loop bounds cover",
		check: func(p Point, b *arch.Backend) error {
			c := p.ClearChunkBytes
			if c < 256 || c > 16384 || c&(c-1) != 0 {
				return fmt.Errorf("clear.chunk-bytes=%d not a power of two in [256, 16384]", c)
			}
			return nil
		},
	},
	{
		Name: "preempt-points-analyzable",
		Doc:  "the per-site preemption keys must agree: only the all-on (modernised) and all-off (original) image generations exist, so a mixed setting has no analyzable image and its bound would be attributable to neither generation",
		check: func(p Point, b *arch.Backend) error {
			if p.PreemptDelete != p.PreemptClear {
				return fmt.Errorf("preempt.delete=%t preempt.clear=%t: mixed preemption sites have no analyzable image generation", p.PreemptDelete, p.PreemptClear)
			}
			return nil
		},
	},
	{
		Name: "lazy-excludes-preemption",
		Doc:  "the lazy-scheduler kernel predates the restartable-operation bookkeeping the preemption points rely on (§2.1); lazy points must have every preemption key off",
		check: func(p Point, b *arch.Backend) error {
			if p.Scheduler == sched.Lazy && (p.PreemptDelete || p.PreemptClear || p.SplitReply) {
				return fmt.Errorf("sched.policy=lazy with preemption keys enabled: the original kernel has no restartable-operation support")
			}
			return nil
		},
	},
	{
		Name: "split-reply-requires-preempt",
		Doc:  "the ReplyRecv split point is an additional preemption point; it needs the preemption-point machinery on",
		check: func(p Point, b *arch.Backend) error {
			if p.SplitReply && !(p.PreemptDelete && p.PreemptClear) {
				return fmt.Errorf("preempt.split-reply=true without the preemption points enabled")
			}
			return nil
		},
	},
}

// Rules returns the rule table, including the bootstrap rule, for
// documentation and the per-rule counterexample tests.
func Rules() []Rule {
	all := []Rule{{
		Name: RuleArchRegistered,
		Doc:  "the arch key must name a registered backend; no other rule can be evaluated without one",
	}}
	return append(all, rules...)
}

// Violation is one named-rule diagnostic.
type Violation struct {
	// Rule is the violated rule's name.
	Rule string
	// Err describes the violating assignment.
	Err error
}

func (v Violation) Error() string { return fmt.Sprintf("rule %s: %v", v.Rule, v.Err) }

// Validate evaluates every rule against the point and returns all
// violations, in rule order. An unresolvable backend yields the single
// arch-registered violation.
func Validate(p Point) []Violation {
	b, err := arch.Lookup(p.Arch)
	if err != nil {
		return []Violation{{Rule: RuleArchRegistered, Err: err}}
	}
	var out []Violation
	for _, r := range rules {
		if err := r.check(p, b); err != nil {
			out = append(out, Violation{Rule: r.Name, Err: err})
		}
	}
	return out
}

// Check returns nil for a feasible point, or an error joining every
// named-rule diagnostic.
func (p Point) Check() error {
	vs := Validate(p)
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.Error()
	}
	return fmt.Errorf("konfig: infeasible point %s: %s", p.Hash(), strings.Join(msgs, "; "))
}
