package konfig

import (
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/sched"
)

// counterexamples is the minimal-violation table: for every named rule,
// one point that violates exactly that rule. The table doubles as rule
// documentation — each entry is the smallest step off the lattice that
// the rule exists to catch. The hardware conditions behind
// hardware-supported have their own table in internal/arch
// (TestValidateConfigRejectsMissingFeatures).
func counterexamples(t *testing.T) map[string]Point {
	t.Helper()
	arm := mustDefault(arch.ARM1136ID)
	riscv := mustDefault("cva6rt")

	mut := func(base Point, f func(*Point)) Point {
		f(&base)
		return base
	}
	return map[string]Point{
		RuleArchRegistered:          mut(arm, func(p *Point) { p.Arch = "nonesuch" }),
		"hardware-supported":        mut(riscv, func(p *Point) { p.L2Enabled = true }),
		"chunk-power-of-two":        mut(arm, func(p *Point) { p.ClearChunkBytes = 1000 }),
		"preempt-points-analyzable": mut(arm, func(p *Point) { p.PreemptClear = false }),
		"lazy-excludes-preemption":  mut(arm, func(p *Point) { p.Scheduler = sched.Lazy }),
		"split-reply-requires-preempt": mut(arm, func(p *Point) {
			p.SplitReply = true
			p.PreemptDelete = false
			p.PreemptClear = false
		}),
	}
}

// TestEveryRuleFires holds the counterexample table complete and
// minimal: every named rule has an entry, every entry trips exactly its
// own rule (except lazy-excludes-preemption's companion below, which
// stays a single-rule violation by construction), and the diagnostic
// carries the rule name.
func TestEveryRuleFires(t *testing.T) {
	table := counterexamples(t)
	for _, r := range Rules() {
		name := r.Name
		p, ok := table[name]
		if !ok {
			t.Errorf("rule %s has no counterexample in the table", name)
			continue
		}
		vs := Validate(p)
		if len(vs) != 1 {
			t.Errorf("rule %s: counterexample produced %d violations %v, want exactly 1", name, len(vs), vs)
			continue
		}
		if vs[0].Rule != name {
			t.Errorf("rule %s: counterexample fired rule %s instead", name, vs[0].Rule)
		}
		if err := p.Check(); err == nil || !strings.Contains(err.Error(), "rule "+name) {
			t.Errorf("rule %s: Check() = %v, want diagnostic naming the rule", name, err)
		}
	}
	for name := range table {
		found := false
		for _, r := range Rules() {
			if r.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("table entry %s names no registered rule", name)
		}
	}
}

// TestDefaultPointsFeasible holds every backend's default point and
// every legacy matrix point feasible.
func TestDefaultPointsFeasible(t *testing.T) {
	for _, id := range arch.BackendIDs() {
		p, err := DefaultPoint(id)
		if err != nil {
			t.Fatalf("DefaultPoint(%s): %v", id, err)
		}
		if err := p.Check(); err != nil {
			t.Errorf("DefaultPoint(%s) infeasible: %v", id, err)
		}
		for _, m := range []func(string) ([]NamedPoint, error){LegacySoakMatrix, LegacyProbeMatrix} {
			pts, err := m(id)
			if err != nil {
				t.Fatalf("legacy matrix on %s: %v", id, err)
			}
			for _, np := range pts {
				if err := np.Point.Check(); err != nil {
					t.Errorf("legacy point %s on %s infeasible: %v", np.Name, id, err)
				}
			}
		}
	}
	for _, np := range LegacyHardwareMatrix() {
		if err := np.Point.Check(); err != nil {
			t.Errorf("hardware matrix point %s infeasible: %v", np.Name, err)
		}
	}
}

// TestHardwareDiagnosticNamesEveryFault: a point with several hardware
// faults violates the one hardware rule once, and its diagnostic, on
// one line, names the rule and every failed condition.
func TestHardwareDiagnosticNamesEveryFault(t *testing.T) {
	p := mustDefault(arch.CVA6RTID)
	p.L2Enabled, p.BranchPredictor, p.TCMEnabled = true, true, true
	vs := Validate(p)
	if len(vs) != 1 || vs[0].Rule != "hardware-supported" {
		t.Fatalf("Validate = %v, want one hardware-supported violation", vs)
	}
	err := p.Check()
	if err == nil {
		t.Fatal("point with three hardware faults accepted")
	}
	msg := err.Error()
	for _, want := range []string{"rule hardware-supported", "no L2 cache", "no dynamic branch predictor", "no tightly-coupled memory"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Check() = %q, want it to name %q", msg, want)
		}
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("Check() = %q spans several lines", msg)
	}
}
