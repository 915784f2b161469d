package ilp

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

// relax solves p's LP relaxation on the one solve path, Prepare then
// phase 2, without the integrality check.
func relax(p *Problem) (*Solution, error) {
	pp, err := Prepare(p)
	if err != nil {
		return nil, err
	}
	s, err := pp.maximizeLP(p.objective)
	if s != nil {
		s.Pivots += pp.Pivots
	}
	return s, err
}

func TestSimpleLP(t *testing.T) {
	// max 3x + 2y  s.t. x + y <= 4; x + 3y <= 6
	// optimum at (4, 0): value 12.
	p := NewProblem()
	x := p.AddVar("x", 3)
	y := p.AddVar("y", 2)
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Sense: LE, RHS: 4})
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 3}}, Sense: LE, RHS: 6})
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !near(s.Value, 12) {
		t.Fatalf("got %v value %v, want optimal 12", s.Status, s.Value)
	}
	if !near(s.X[x], 4) || !near(s.X[y], 0) {
		t.Errorf("solution (%v, %v), want (4, 0)", s.X[x], s.X[y])
	}
}

func TestEqualityAndGE(t *testing.T) {
	// max x + y  s.t. x + y = 10; x >= 3; y >= 2  -> 10.
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Sense: EQ, RHS: 10})
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Sense: GE, RHS: 3})
	p.AddConstraint(Constraint{Terms: []Term{{y, 1}}, Sense: GE, RHS: 2})
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !near(s.Value, 10) {
		t.Fatalf("got %v value %v, want optimal 10", s.Status, s.Value)
	}
	if s.X[x] < 3-1e-6 || s.X[y] < 2-1e-6 {
		t.Errorf("solution (%v, %v) violates lower bounds", s.X[x], s.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Sense: LE, RHS: 1})
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Sense: GE, RHS: 2})
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 0)
	p.AddConstraint(Constraint{Terms: []Term{{y, 1}}, Sense: LE, RHS: 5})
	_ = x
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("got %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalisation(t *testing.T) {
	// x - y >= -2 with max -x + y: optimum y = x + 2 at x = 0 -> 2.
	p := NewProblem()
	x := p.AddVar("x", -1)
	y := p.AddVar("y", 1)
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, -1}}, Sense: GE, RHS: -2})
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Sense: LE, RHS: 10})
	p.AddConstraint(Constraint{Terms: []Term{{y, 1}}, Sense: LE, RHS: 100})
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !near(s.Value, 2) {
		t.Fatalf("got %v value %v, want optimal 2", s.Status, s.Value)
	}
}

// TestFractionalOptimumIsError: a 0/1 knapsack whose LP optimum
// takes a fractional share of one item. Solve must report that
// variable instead of branching to the integer optimum (21) or
// rounding the relaxation.
func TestFractionalOptimumIsError(t *testing.T) {
	// max 8a + 11b + 6c + 4d s.t. 5a+7b+4c+3d <= 14, vars <= 1.
	// The LP fills by value density: a and b whole, then half of c,
	// for 22.
	p := NewProblem()
	vals := []float64{8, 11, 6, 4}
	wts := []float64{5, 7, 4, 3}
	var knap []Term
	for i, v := range vals {
		vi := p.AddVar(string(rune('a'+i)), v)
		p.AddConstraint(Constraint{Terms: []Term{{vi, 1}}, Sense: LE, RHS: 1})
		knap = append(knap, Term{vi, wts[i]})
	}
	p.AddConstraint(Constraint{Terms: knap, Sense: LE, RHS: 14})
	s, err := Solve(p)
	if !errors.Is(err, errFractional) {
		t.Fatalf("Solve = %+v, %v; want the fractional-optimum error", s, err)
	}
	want := "ilp: LP optimum is fractional (c=0.5); IPET expects integral flows"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

func TestFlowLikeProblem(t *testing.T) {
	// A tiny IPET-shaped problem: entry e with count 1; branch to a
	// or b; join j. max 10a + 50b + 5j s.t. flow conservation.
	p := NewProblem()
	e := p.AddVar("e", 1)
	a := p.AddVar("a", 10)
	b := p.AddVar("b", 50)
	j := p.AddVar("j", 5)
	p.AddConstraint(Constraint{Terms: []Term{{e, 1}}, Sense: EQ, RHS: 1})
	p.AddConstraint(Constraint{Terms: []Term{{a, 1}, {b, 1}, {e, -1}}, Sense: EQ, RHS: 0})
	p.AddConstraint(Constraint{Terms: []Term{{j, 1}, {a, -1}, {b, -1}}, Sense: EQ, RHS: 0})
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// e=1, b=1, j=1 -> 1 + 50 + 5 = 56.
	if s.Status != Optimal || !near(s.Value, 56) {
		t.Fatalf("got %v value %v, want optimal 56", s.Status, s.Value)
	}
	if !near(s.X[b], 1) || !near(s.X[a], 0) {
		t.Errorf("flow picked a=%v b=%v, want the expensive arm", s.X[a], s.X[b])
	}
}

func TestDegenerateCycling(t *testing.T) {
	// A classically degenerate problem (Beale's example scaled);
	// must terminate via the Bland fallback. Its optimum (x1 = 1/25)
	// is fractional, so this drives the simplex alone.
	p := NewProblem()
	x1 := p.AddVar("x1", 0.75)
	x2 := p.AddVar("x2", -150)
	x3 := p.AddVar("x3", 0.02)
	x4 := p.AddVar("x4", -6)
	p.AddConstraint(Constraint{Terms: []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Terms: []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Terms: []Term{{x3, 1}}, Sense: LE, RHS: 1})
	s, err := relax(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !near(s.Value, 0.05) {
		t.Fatalf("got %v value %v, want optimal 0.05", s.Status, s.Value)
	}
}

func TestWriteLPFormat(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 3)
	p.AddConstraint(Constraint{Terms: []Term{{x, 2}}, Sense: LE, RHS: 7, Label: "cap"})
	lp := p.WriteLP()
	for _, want := range []string{"Maximize", "+3 x", "cap:", "+2 x <= 7", "Generals", "End"} {
		if !strings.Contains(lp, want) {
			t.Errorf("LP dump missing %q:\n%s", want, lp)
		}
	}
}

// bruteForce enumerates integer points of a small bounded ILP.
func bruteForce(obj []float64, cons []Constraint, ub int) float64 {
	n := len(obj)
	best := math.Inf(-1)
	x := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for _, c := range cons {
				sum := 0.0
				for _, t := range c.Terms {
					sum += t.Coeff * float64(x[t.Var])
				}
				switch c.Sense {
				case LE:
					if sum > c.RHS+1e-9 {
						return
					}
				case GE:
					if sum < c.RHS-1e-9 {
						return
					}
				case EQ:
					if math.Abs(sum-c.RHS) > 1e-9 {
						return
					}
				}
			}
			v := 0.0
			for j, c := range obj {
				v += c * float64(x[j])
			}
			if v > best {
				best = v
			}
			return
		}
		for v := 0; v <= ub; v++ {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// Property: on random small bounded ILPs the solver either matches
// brute force or reports a fractional LP optimum — never another value.
func TestPropertyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	matched, fractional := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3) // 2..4 vars
		const ub = 4
		p := NewProblem()
		obj := make([]float64, n)
		for i := 0; i < n; i++ {
			obj[i] = float64(rng.Intn(11) - 3)
			p.AddVar("x"+string(rune('0'+i)), obj[i])
		}
		var cons []Constraint
		// Upper bounds keep it bounded.
		for i := 0; i < n; i++ {
			c := Constraint{Terms: []Term{{i, 1}}, Sense: LE, RHS: ub}
			cons = append(cons, c)
			p.AddConstraint(c)
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{i, float64(rng.Intn(7) - 2)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []Sense{LE, GE}[rng.Intn(2)]
			rhs := float64(rng.Intn(15) - 3)
			c := Constraint{Terms: terms, Sense: sense, RHS: rhs}
			cons = append(cons, c)
			p.AddConstraint(c)
		}
		want := bruteForce(obj, cons, ub)
		s, err := Solve(p)
		if errors.Is(err, errFractional) {
			fractional++
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, p.WriteLP())
		}
		matched++
		if math.IsInf(want, -1) {
			if s.Status != Infeasible {
				t.Errorf("trial %d: got %v value %v, want infeasible\n%s", trial, s.Status, s.Value, p.WriteLP())
			}
			continue
		}
		if s.Status != Optimal || !near(s.Value, want) {
			t.Errorf("trial %d: got %v value %v, brute force %v\n%s", trial, s.Status, s.Value, want, p.WriteLP())
		}
	}
	t.Logf("%d trials matched brute force, %d had a fractional LP optimum", matched, fractional)
	if matched == 0 {
		t.Error("no trial reached an integral optimum; the property checked nothing")
	}
}
