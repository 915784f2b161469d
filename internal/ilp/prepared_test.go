package ilp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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
// fresh one-shot solve of the same rows under obj. An answer phase 2
// gave must equal the fresh one exactly: the same Status, bit-equal
// Value and X, and the same phase-2 pivot count. An answer the kept
// optimum gave (Warm) ran no pivot and was read off another tableau,
// so it must equal the fresh one in Status and X: bit for bit once
// Maximize rounds X to the integers, within rounding in the
// relaxation. It returns the outcome's name for coverage accounting,
// prefixed "warm " when Maximize (for a fractional optimum, the
// relaxation) answered warm.
func checkShared(t *testing.T, label string, p *Problem, pp *Prepared, obj []float64) string {
	t.Helper()
	q := withObjective(p, obj)

	// The LP relaxation, whether or not it is integral.
	gotLP, errLP := pp.maximizeLP(obj)
	wantLP, wantErrLP := relax(q)
	if (errLP == nil) != (wantErrLP == nil) {
		t.Fatalf("%s: relaxation errors differ: shared %v, fresh %v", label, errLP, wantErrLP)
	}
	if errLP == nil && !sameAnswer(gotLP, wantLP, pp.Pivots, false) {
		t.Fatalf("%s: shared relaxation %+v (+%d phase-1 pivots), fresh %+v\n%s",
			label, gotLP, pp.Pivots, wantLP, q.WriteLP(q.objective))
	}

	got, err := pp.Maximize(obj)
	want, wantErr := Solve(q)
	warm := ""
	if got != nil && got.Warm {
		warm = "warm "
	}
	var fe, wantFE *FractionalError
	switch {
	case errors.As(wantErr, &wantFE):
		// A fractional Maximize returns no Solution to say whether it
		// was warm. After a cold relaxation it either reads the
		// tableau that relaxation just kept or runs the same phase 2
		// again, so its value is bit-equal to the fresh one; only
		// after a warm relaxation is it read off another tableau.
		warmLP := errLP == nil && gotLP.Warm
		if !errors.As(err, &fe) || fe.Var != wantFE.Var ||
			(warmLP && !closeTo(fe.Value, wantFE.Value)) ||
			(!warmLP && math.Float64bits(fe.Value) != math.Float64bits(wantFE.Value)) {
			t.Fatalf("%s: shared Maximize = %+v, %v; fresh Solve: %v", label, got, err, wantErr)
		}
		if warmLP {
			return "warm fractional"
		}
		return "fractional"
	case wantErr != nil || err != nil:
		t.Fatalf("%s: shared Maximize error %v, fresh Solve error %v", label, err, wantErr)
	}
	if !sameAnswer(got, want, pp.Pivots, true) {
		t.Fatalf("%s: shared Maximize %+v (+%d phase-1 pivots), fresh Solve %+v\n%s",
			label, got, pp.Pivots, want, q.WriteLP(q.objective))
	}
	return warm + got.Status.String()
}

// sameAnswer reports whether got, an answer on a shared Prepared that
// ran prepPivots phase-1 pivots, equals want, a fresh solve's. A cold
// answer must equal it bit for bit, pivots included. A warm one must
// have the same Status and X, bit for bit when integral is set (X
// rounded by Maximize) and within rounding otherwise, and a Value
// within rounding.
func sameAnswer(got, want *Solution, prepPivots int, integral bool) bool {
	if got.Status != want.Status {
		return false
	}
	if !got.Warm {
		return math.Float64bits(got.Value) == math.Float64bits(want.Value) &&
			sameBits(got.X, want.X) && got.Pivots+prepPivots == want.Pivots
	}
	if got.Pivots != 0 || !closeTo(got.Value, want.Value) || len(got.X) != len(want.X) {
		return false
	}
	if integral {
		return sameBits(got.X, want.X)
	}
	for i := range got.X {
		if !closeTo(got.X[i], want.X[i]) {
			return false
		}
	}
	return true
}

// closeTo reports whether a and b agree to within rounding error.
func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

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
// as a fresh one-shot Solve of the same rows serves each (sameAnswer):
// exactly when phase 2 answers, in Status and X when the kept optimum
// does. The problems are random EQ/LE/GE rows that between them are
// optimal, infeasible, unbounded and fractional, plus Beale's
// degenerate example. Each Prepared is maximised repeatedly, and each
// objective twice (relaxation, then Maximize), so the second answer
// of an objective with a unique optimum is warm, and a Maximize that
// disturbed the shared tableau or the kept optimum would show in the
// later objectives.
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
	for _, want := range []string{"optimal", "warm optimal", "infeasible", "unbounded", "fractional", "warm fractional", "beale fractional"} {
		if seen[want] == 0 {
			t.Errorf("no %s case drawn; the property did not cover it", want)
		}
	}
}

// TestWarmMatchesFreshSolve: over random rows, a Maximize answered
// from an optimum another objective left behind equals a fresh Solve
// in Status and X. Each Prepared is maximised under perturbations of
// one objective, so that successive optima often share a basis, and
// every answer is checked against a fresh Solve with sameAnswer.
func TestWarmMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	warm, cold := 0, 0
	for trial := 0; trial < 300; trial++ {
		p := randomRows(rng, true)
		pp, err := Prepare(p)
		if err != nil {
			t.Fatalf("trial %d: Prepare: %v", trial, err)
		}
		base := randomObjective(rng, p.NumVars())
		for k := 0; k < 6; k++ {
			obj := slices.Clone(base)
			obj[rng.Intn(len(obj))] += float64(rng.Intn(5) - 2)
			got, err := pp.Maximize(obj)
			want, wantErr := Solve(withObjective(p, obj))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("trial %d objective %d: shared error %v, fresh error %v", trial, k, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !sameAnswer(got, want, pp.Pivots, true) {
				t.Fatalf("trial %d objective %d: shared %+v, fresh %+v\n%s", trial, k, got, want, p.WriteLP(obj))
			}
			if got.Warm {
				warm++
			} else if got.Status == Optimal {
				cold++
			}
		}
	}
	t.Logf("%d warm and %d cold optimal answers", warm, cold)
	if warm == 0 || cold == 0 {
		t.Errorf("%d warm and %d cold optimal answers; the property did not cover both", warm, cold)
	}
}

// TestWarmTieTakesColdPath: an objective that ties at the kept vertex
// has a second optimum there, so the kept basis may not answer it. On
// a diamond whose kept optimum takes arm b, equal arm costs must run
// phase 2 from the phase-1 basis and equal a fresh Solve bit for bit.
func TestWarmTieTakesColdPath(t *testing.T) {
	p := NewProblem()
	in, a, b, out := p.AddVar("in", 0), p.AddVar("a", 0), p.AddVar("b", 0), p.AddVar("out", 0)
	p.AddConstraint(Constraint{Terms: []Term{{in, 1}}, Sense: EQ, RHS: 1})
	p.AddConstraint(Constraint{Terms: []Term{{a, 1}, {b, 1}, {in, -1}}, Sense: EQ, RHS: 0})
	p.AddConstraint(Constraint{Terms: []Term{{out, 1}, {a, -1}, {b, -1}}, Sense: EQ, RHS: 0})
	pp, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pp.Maximize([]float64{1, 2, 5, 1})
	if err != nil || first.Warm || first.X[b] != 1 {
		t.Fatalf("first solve %+v, %v; want a cold optimum through b", first, err)
	}
	// Arm b again, now unique by a wider margin: the kept optimum
	// answers.
	again, err := pp.Maximize([]float64{1, 2, 9, 1})
	if err != nil || !again.Warm || again.X[b] != 1 {
		t.Fatalf("second solve %+v, %v; want a warm optimum through b", again, err)
	}
	tie := []float64{1, 3, 3, 1}
	got, err := pp.Maximize(tie)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(withObjective(p, tie))
	if err != nil {
		t.Fatal(err)
	}
	if got.Warm || math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
		!sameBits(got.X, want.X) || got.Pivots+pp.Pivots != want.Pivots {
		t.Errorf("tied objective: shared %+v (+%d phase-1 pivots), fresh Solve %+v", got, pp.Pivots, want)
	}
	t.Logf("tie: shared %+v, fresh %+v", got, want)
}

// TestPreparedConcurrentMaximize: goroutines maximising different
// objectives over one Prepared each get the answer a fresh Solve gives
// (sameAnswer). The objectives come in pairs with one optimum, the
// pairs with different optima, and each goroutine walks through them,
// so the kept optimum is replaced while other goroutines price against
// it. Run under -race, it also shows that Maximize writes nothing but
// the kept optimum.
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
	// Objective 2k+1 is 2·objective 2k + 1: every path takes one
	// variable per diamond, so the two share their optima, and the
	// second can answer warm after the first.
	rng := rand.New(rand.NewSource(1))
	objs := make([][]float64, 16)
	want := make([]*Solution, len(objs))
	bases := map[string]bool{}
	for i := range objs {
		objs[i] = make([]float64, p.NumVars())
		for v := range objs[i] {
			if i%2 == 0 {
				objs[i][v] = float64(rng.Intn(50))
			} else {
				objs[i][v] = 2*objs[i-1][v] + 1
			}
		}
		if want[i], err = Solve(withObjective(p, objs[i])); err != nil {
			t.Fatal(err)
		}
		bases[fmt.Sprint(want[i].X)] = true
	}
	if len(bases) < 2 {
		t.Fatalf("the %d objectives share one optimum; the kept optimum would never change", len(objs))
	}
	var wg sync.WaitGroup
	var warm atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				i := (g + r) % len(objs)
				got, err := pp.Maximize(objs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got.Warm {
					warm.Add(1)
				}
				if !sameAnswer(got, want[i], pp.Pivots, true) {
					t.Errorf("objective %d: concurrent %+v, fresh %+v", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d distinct optima; %d of %d answers warm", len(bases), warm.Load(), 8*40)
	if warm.Load() == 0 {
		t.Error("no answer came from the kept optimum")
	}
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
