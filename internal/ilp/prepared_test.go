package ilp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// withObjective returns a problem with p's variables and rows and the
// objective obj: what a caller would hand Solve for that objective.
func withObjective(p *Problem, obj []float64) *Problem {
	q := NewProblem()
	for i, name := range p.names {
		q.AddVar(name, obj[i])
	}
	for _, c := range p.cons {
		q.AddConstraint(c)
	}
	return q
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkShared compares pp.Maximize(obj) (and its LP relaxation) with a
// fresh one-shot solve of the same rows under obj. It returns the
// outcome's name for coverage accounting.
func checkShared(t *testing.T, label string, p *Problem, pp *Prepared, obj []float64) string {
	t.Helper()
	q := withObjective(p, obj)

	// The LP relaxation: bit-equal whether or not it is integral.
	gotLP, errLP := pp.maximizeLP(obj)
	wantLP, wantErrLP := relax(q)
	if (errLP == nil) != (wantErrLP == nil) {
		t.Fatalf("%s: relaxation errors differ: shared %v, fresh %v", label, errLP, wantErrLP)
	}
	if errLP == nil {
		if gotLP.Status != wantLP.Status || math.Float64bits(gotLP.Value) != math.Float64bits(wantLP.Value) ||
			!sameBits(gotLP.X, wantLP.X) || gotLP.Pivots+pp.Pivots != wantLP.Pivots {
			t.Fatalf("%s: shared relaxation %+v (+%d phase-1 pivots), fresh %+v\n%s",
				label, gotLP, pp.Pivots, wantLP, q.WriteLP())
		}
	}

	got, err := pp.Maximize(obj)
	want, wantErr := Solve(q)
	var fe, wantFE *FractionalError
	switch {
	case errors.As(wantErr, &wantFE):
		if !errors.As(err, &fe) || fe.Var != wantFE.Var || math.Float64bits(fe.Value) != math.Float64bits(wantFE.Value) {
			t.Fatalf("%s: shared Maximize = %+v, %v; fresh Solve: %v", label, got, err, wantErr)
		}
		return "fractional"
	case wantErr != nil || err != nil:
		t.Fatalf("%s: shared Maximize error %v, fresh Solve error %v", label, err, wantErr)
	}
	if got.Status != want.Status || math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
		!sameBits(got.X, want.X) || got.Pivots+pp.Pivots != want.Pivots {
		t.Fatalf("%s: shared Maximize %+v (+%d phase-1 pivots), fresh Solve %+v\n%s",
			label, got, pp.Pivots, want, q.WriteLP())
	}
	return got.Status.String()
}

// randomRows builds a small problem with n variables and random EQ, LE
// and GE rows; with bounded set, every variable also gets an upper
// bound.
func randomRows(rng *rand.Rand, bounded bool) *Problem {
	n := 2 + rng.Intn(4)
	p := NewProblem()
	for i := 0; i < n; i++ {
		p.AddVar(fmt.Sprintf("x%d", i), 0)
	}
	if bounded {
		for i := 0; i < n; i++ {
			p.AddConstraint(Constraint{Terms: []Term{{i, 1}}, Sense: LE, RHS: float64(2 + rng.Intn(5))})
		}
	}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, Term{i, float64(rng.Intn(7) - 3)})
			}
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		p.AddConstraint(Constraint{Terms: terms, Sense: sense, RHS: float64(rng.Intn(13) - 4)})
	}
	return p
}

// randomObjective draws integral and half-integral coefficients, so
// some optima are fractional.
func randomObjective(rng *rand.Rand, n int) []float64 {
	obj := make([]float64, n)
	for i := range obj {
		obj[i] = float64(rng.Intn(17)-6) / float64(1+rng.Intn(2))
	}
	return obj
}

// TestPreparedMatchesFreshSolve: one Prepared serves several objectives
// exactly as a fresh one-shot Solve of the same rows under each: the
// same Status, bit-equal Value and X, and the same phase-2 pivot
// count, over random EQ/LE/GE problems that between them are
// optimal, infeasible, unbounded and fractional, plus Beale's
// degenerate example. Each Prepared is maximised repeatedly, so a
// Maximize that disturbed the shared tableau would show in the later
// objectives.
func TestPreparedMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	seen := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		p := randomRows(rng, trial%3 != 0)
		pp, err := Prepare(p)
		if err != nil {
			t.Fatalf("trial %d: Prepare: %v", trial, err)
		}
		if pp.Status == Infeasible {
			seen["infeasible"]++
		}
		for k := 0; k < 4; k++ {
			obj := randomObjective(rng, p.NumVars())
			seen[checkShared(t, fmt.Sprintf("trial %d objective %d", trial, k), p, pp, obj)]++
		}
	}

	// Beale's example, whose phase 2 stalls into the Bland fallback.
	p := NewProblem()
	for i := 0; i < 4; i++ {
		p.AddVar(fmt.Sprintf("x%d", i+1), 0)
	}
	p.AddConstraint(Constraint{Terms: []Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Terms: []Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Terms: []Term{{2, 1}}, Sense: LE, RHS: 1})
	pp, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	for k, obj := range [][]float64{{0.75, -150, 0.02, -6}, {0, 0, 1, 0}, {0.75, -150, 0.02, -6}, {1, 1, 1, 1}} {
		seen["beale "+checkShared(t, fmt.Sprintf("beale objective %d", k), p, pp, obj)]++
	}

	t.Logf("outcomes: %v", seen)
	for _, want := range []string{"optimal", "infeasible", "unbounded", "fractional", "beale fractional"} {
		if seen[want] == 0 {
			t.Errorf("no %s case drawn; the property did not cover it", want)
		}
	}
}

// TestPreparedConcurrentMaximize: goroutines maximising different
// objectives over one Prepared each get the answer a sequential
// Maximize gives. Run under -race, it also shows that Maximize only
// reads the Prepared.
func TestPreparedConcurrentMaximize(t *testing.T) {
	// A chain of diamonds, shaped like IPET.
	p := NewProblem()
	prev := p.AddVar("entry", 0)
	p.AddConstraint(Constraint{Terms: []Term{{prev, 1}}, Sense: EQ, RHS: 1})
	for i := 0; i < 12; i++ {
		a, b, j := p.AddVar("a", 0), p.AddVar("b", 0), p.AddVar("j", 0)
		p.AddConstraint(Constraint{Terms: []Term{{a, 1}, {b, 1}, {prev, -1}}, Sense: EQ, RHS: 0})
		p.AddConstraint(Constraint{Terms: []Term{{j, 1}, {a, -1}, {b, -1}}, Sense: EQ, RHS: 0})
		prev = j
	}
	pp, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	objs := make([][]float64, 16)
	want := make([]*Solution, len(objs))
	for i := range objs {
		objs[i] = make([]float64, p.NumVars())
		for v := range objs[i] {
			objs[i][v] = float64(rng.Intn(50))
		}
		if want[i], err = pp.Maximize(objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % len(objs)
				got, err := pp.Maximize(objs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(got.Value) != math.Float64bits(want[i].Value) || !sameBits(got.X, want[i].X) || got.Pivots != want[i].Pivots {
					t.Errorf("objective %d: concurrent %+v, sequential %+v", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRowsKeyCoversPrepareInputs: the key changes with every input
// Prepare reads and with none it ignores.
func TestRowsKeyCoversPrepareInputs(t *testing.T) {
	build := func(edit func(p *Problem)) string {
		p := NewProblem()
		p.AddVar("x", 1)
		p.AddVar("y", 2)
		p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 4, Label: "cap"})
		p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Sense: GE, RHS: 1})
		if edit != nil {
			edit(p)
		}
		return p.RowsKey()
	}
	base := build(nil)
	same := map[string]func(p *Problem){
		"names":     func(p *Problem) { p.names[0] = "renamed" },
		"objective": func(p *Problem) { p.objective[1] = 99 },
		"labels":    func(p *Problem) { p.cons[0].Label = "" },
	}
	for name, edit := range same {
		if build(edit) != base {
			t.Errorf("key depends on %s", name)
		}
	}
	differ := map[string]func(p *Problem){
		"variable count": func(p *Problem) { p.AddVar("z", 0) },
		"sense":          func(p *Problem) { p.cons[1].Sense = EQ },
		"rhs":            func(p *Problem) { p.cons[0].RHS = 5 },
		"coefficient":    func(p *Problem) { p.cons[0].Terms = []Term{{0, 1}, {1, 2}} },
		"term variable":  func(p *Problem) { p.cons[1].Terms = []Term{{1, 1}} },
		"row split": func(p *Problem) {
			p.cons = []Constraint{{Terms: []Term{{0, 1}}, Sense: LE, RHS: 4}, {Terms: []Term{{1, 1}, {0, 1}}, Sense: GE, RHS: 1}}
		},
		"extra row": func(p *Problem) { p.AddConstraint(Constraint{Sense: LE}) },
	}
	for name, edit := range differ {
		if build(edit) == base {
			t.Errorf("key ignores the %s", name)
		}
	}
	// A zero RHS keeps its sign in the tableau, so the key keeps it.
	rhs := func(v float64) func(p *Problem) { return func(p *Problem) { p.cons[0].RHS = v } }
	if build(rhs(0)) == build(rhs(math.Copysign(0, -1))) {
		t.Error("key conflates an RHS of +0 and -0")
	}
}
