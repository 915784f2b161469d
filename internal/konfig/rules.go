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
	// holds reports whether the point satisfies the rule and builds
	// nothing; explain describes the violation of a point it does not
	// hold for. The backend is the point's resolved backend (rule
	// arch-registered guarantees resolution before any other rule
	// runs).
	holds   func(p Point, b *arch.Backend) bool
	explain func(p Point, b *arch.Backend) error
}

// RuleArchRegistered is the bootstrap rule: every other rule needs the
// resolved backend, so an unknown backend short-circuits validation.
const RuleArchRegistered = "arch-registered"

// rules is the rule table, in evaluation order.
var rules = []Rule{
	{
		Name:    "hardware-supported",
		Doc:     "the hardware keys must describe a machine the backend can be; arch.(*Backend).ValidateConfig states the conditions and names each one that fails",
		holds:   func(p Point, b *arch.Backend) bool { return b.Supports(p.Hardware()) },
		explain: func(p Point, b *arch.Backend) error { return b.ValidateConfig(p.Hardware()) },
	},
	{
		Name: "chunk-power-of-two",
		Doc:  "the clearing granularity must be an explicit power of two in [256, 16384] bytes — the range the preemption-point analysis's loop bounds cover",
		holds: func(p Point, b *arch.Backend) bool {
			c := p.ClearChunkBytes
			return c >= 256 && c <= 16384 && c&(c-1) == 0
		},
		explain: func(p Point, b *arch.Backend) error {
			return fmt.Errorf("clear.chunk-bytes=%d not a power of two in [256, 16384]", p.ClearChunkBytes)
		},
	},
	{
		Name:  "preempt-points-analyzable",
		Doc:   "the per-site preemption keys must agree: only the all-on (modernised) and all-off (original) image generations exist, so a mixed setting has no analyzable image and its bound would be attributable to neither generation",
		holds: func(p Point, b *arch.Backend) bool { return p.PreemptDelete == p.PreemptClear },
		explain: func(p Point, b *arch.Backend) error {
			return fmt.Errorf("preempt.delete=%t preempt.clear=%t: mixed preemption sites have no analyzable image generation", p.PreemptDelete, p.PreemptClear)
		},
	},
	{
		Name: "lazy-excludes-preemption",
		Doc:  "the lazy-scheduler kernel predates the restartable-operation bookkeeping the preemption points rely on (§2.1); lazy points must have every preemption key off",
		holds: func(p Point, b *arch.Backend) bool {
			return p.Scheduler != sched.Lazy || !(p.PreemptDelete || p.PreemptClear || p.SplitReply)
		},
		explain: func(p Point, b *arch.Backend) error {
			return fmt.Errorf("sched.policy=lazy with preemption keys enabled: the original kernel has no restartable-operation support")
		},
	},
	{
		Name:  "split-reply-requires-preempt",
		Doc:   "the ReplyRecv split point is an additional preemption point; it needs the preemption-point machinery on",
		holds: func(p Point, b *arch.Backend) bool { return !p.SplitReply || p.PreemptDelete && p.PreemptClear },
		explain: func(p Point, b *arch.Backend) error {
			return fmt.Errorf("preempt.split-reply=true without the preemption points enabled")
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
		if !r.holds(p, b) {
			out = append(out, Violation{Rule: r.Name, Err: r.explain(p, b)})
		}
	}
	return out
}

// feasible reports whether Validate finds no violation, building no
// diagnostic: the lattice walk's filter.
func feasible(p Point) bool {
	b, err := arch.Lookup(p.Arch)
	if err != nil {
		return false
	}
	for _, r := range rules {
		if !r.holds(p, b) {
			return false
		}
	}
	return true
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
