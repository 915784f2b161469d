package ilp

import (
	"errors"
	"math"
	"testing"
)

// TestSolveEdgeCases drives the solver through the degenerate shapes a
// malformed IPET encoding can produce — no variables, no constraints,
// contradictions, unbounded rays, an LP optimum with no integral
// counterpart — and asserts the reported Status (by its wire string,
// which is what error messages and logs carry) or error, plus the
// Pivots accounting.
func TestSolveEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *Problem
		status    string
		value     float64 // checked only when optimal
		wantsWork bool    // expect at least one simplex pivot
		err       error   // expected error; status is then unchecked
	}{
		{
			name:   "empty problem",
			build:  func() *Problem { return NewProblem() },
			status: "optimal",
			value:  0,
		},
		{
			name: "vars but no constraints, zero objective",
			build: func() *Problem {
				p := NewProblem()
				p.AddVar("x", 0)
				p.AddVar("y", 0)
				return p
			},
			status: "optimal",
			value:  0,
		},
		{
			name: "vars but no constraints, positive objective",
			build: func() *Problem {
				p := NewProblem()
				p.AddVar("x", 1)
				return p
			},
			status: "unbounded",
		},
		{
			name: "contradictory bounds",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVar("x", 1)
				p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Sense: LE, RHS: 1})
				p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Sense: GE, RHS: 5})
				return p
			},
			status:    "infeasible",
			wantsWork: true,
		},
		{
			name: "zero-RHS equality forces everything to zero",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVar("x", 3)
				y := p.AddVar("y", 2)
				p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Sense: EQ, RHS: 0})
				return p
			},
			status: "optimal",
			value:  0,
		},
		{
			name: "unbounded ray despite one binding constraint",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVar("x", 1)
				y := p.AddVar("y", 1)
				// Only x is bounded; y can grow without limit.
				p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Sense: LE, RHS: 4})
				_ = y
				return p
			},
			status: "unbounded",
		},
		{
			name: "integer infeasible from fractional-only window",
			build: func() *Problem {
				p := NewProblem()
				// 2x = 1 has the LP solution x = 0.5 and no integer one.
				x := p.AddVar("x", 1)
				p.AddConstraint(Constraint{Terms: []Term{{x, 2}}, Sense: EQ, RHS: 1})
				return p
			},
			err: errFractional,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sol, err := Solve(c.build())
			if c.err != nil {
				if !errors.Is(err, c.err) {
					t.Fatalf("Solve = %+v, %v; want error %v", sol, err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if got := sol.Status.String(); got != c.status {
				t.Fatalf("status = %q, want %q", got, c.status)
			}
			if c.status == "optimal" && math.Abs(sol.Value-c.value) > tol {
				t.Errorf("value = %v, want %v", sol.Value, c.value)
			}
			if sol.Pivots < 0 {
				t.Errorf("negative pivot count %d", sol.Pivots)
			}
			if c.wantsWork && sol.Pivots == 0 {
				t.Errorf("solver reported 0 pivots for a problem requiring simplex work")
			}
		})
	}
}
