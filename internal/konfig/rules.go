package konfig

import (
	"fmt"
	"strings"

	"verikern/internal/arch"
	"verikern/internal/sched"
)

// Rule is one named feasibility rule. Rules reject two classes of
// assignment: physically impossible ones (a feature the backend does
// not have, pinning past the associativity), which the single
// hardware-supported rule leaves to the backend, and unverifiable ones
// — combinations no analyzable image generation or validated model
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
		Name: "hardware-supported",
		Doc:  "the hardware keys must describe a machine the backend can be; arch.(*Backend).ValidateConfig states the conditions and names each one that fails",
		check: func(p Point, b *arch.Backend) error {
			return b.ValidateConfig(p.Hardware())
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

// Check returns nil for a feasible point, or a one-line error joining
// every named-rule diagnostic and, within one, every failed condition.
func (p Point) Check() error {
	vs := Validate(p)
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = strings.ReplaceAll(v.Error(), "\n", "; ")
	}
	return fmt.Errorf("konfig: infeasible point %s: %s", p.Hash(), strings.Join(msgs, "; "))
}
