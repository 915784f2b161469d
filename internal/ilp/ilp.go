// Package ilp is the from-scratch solver for the paper's IPET integer
// linear programs (§5.2), which the paper hands to an off-the-shelf
// ILP solver: a two-phase dense simplex solves the LP relaxation, and
// an integrality check accepts its optimum only when every variable
// is integral.
//
// Problems are maximisation over non-negative integer variables with
// <=, >= and = constraints. IPET flow problems are network-flow-like,
// and every shipped one has an integral LP optimum, so one LP is the
// whole solve. A fractional optimum is reported as an error, never
// branched on and never rounded.
//
// The constraint rows alone decide phase 1, and the objective only
// phase 2, so the solve is split in two: Prepare runs phase 1 once per
// set of rows, and Maximize runs phase 2 for one objective on a copy
// of the prepared tableau. Solve is Prepare followed by Maximize.
package ilp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Sense is a constraint's comparison direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one coefficient of a constraint row: Coeff * x_Var.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is sum(Terms) Sense RHS.
type Constraint struct {
	// Terms lists the row's coefficients; an absent variable has
	// coefficient 0, and a variable listed twice has the sum of its
	// coefficients.
	Terms []Term
	Sense Sense
	RHS   float64
	// Label is an optional human-readable name for debugging and
	// the LP dump.
	Label string
}

// Problem is an ILP: maximise Objective·x subject to Constraints,
// x >= 0 and x integer.
type Problem struct {
	names     []string
	objective []float64
	cons      []Constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds an integer variable with the given objective
// coefficient and returns its index. The name appears only in the LP
// dump and in Solve's fractional-optimum error; it may be empty.
func (p *Problem) AddVar(name string, objCoeff float64) int {
	p.names = append(p.names, name)
	p.objective = append(p.objective, objCoeff)
	return len(p.names) - 1
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.names) }

// Objective returns the objective coefficients in variable order. The
// slice is the problem's own.
func (p *Problem) Objective() []float64 { return p.objective }

// AddConstraint appends a constraint. Term slices are retained, not
// copied.
func (p *Problem) AddConstraint(c Constraint) { p.cons = append(p.cons, c) }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// RowsKey returns the exact byte encoding of everything Prepare reads:
// the variable count, then per row its sense, the bits of its RHS and
// its terms in order, each as (variable, coefficient bits). Names,
// labels and the objective are left out. Two problems with equal keys
// prepare to bit-identical tableaux, because Prepare is a
// deterministic function of these bytes.
func (p *Problem) RowsKey() string {
	size := 8
	for _, c := range p.cons {
		size += 13 + 12*len(c.Terms)
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.names)))
	for _, c := range p.cons {
		b = append(b, byte(c.Sense))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.RHS))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Terms)))
		for _, t := range c.Terms {
			b = binary.LittleEndian.AppendUint32(b, uint32(t.Var))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Coeff))
		}
	}
	return string(b)
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Solution is the result of solving a problem.
type Solution struct {
	Status Status
	// Value is the objective value (meaningful when Optimal).
	Value float64
	// X holds the variable values, each exactly integral (meaningful
	// when Optimal).
	X []float64
	// Pivots counts the simplex pivots this call performed: both
	// phases for Solve, phase 2 alone for Maximize (phase 1 is
	// Prepared.Pivots). It is the solver-effort metric the pipeline's
	// Stats() reports.
	Pivots int
}

const (
	tol = 1e-7
	// intTol is how far from an integer a variable of the LP
	// optimum may lie and still count as integral.
	intTol = 1e-5
)

// errFractional reports an LP optimum with a non-integral variable.
var errFractional = errors.New("ilp: LP optimum is fractional")

// FractionalError reports an LP optimum whose variable Var has the
// non-integral value Value. It matches errFractional under errors.Is.
type FractionalError struct {
	Var   int
	Value float64
	// Name names the variable in the message; when empty the
	// message says x<Var>. Maximize does not know the names, so
	// its caller may fill Name in.
	Name string
}

func (e *FractionalError) Error() string {
	name := e.Name
	if name == "" {
		name = fmt.Sprintf("x%d", e.Var)
	}
	return fmt.Sprintf("%v (%s=%g); IPET expects integral flows", errFractional, name, e.Value)
}

func (e *FractionalError) Unwrap() error { return errFractional }

// Solve solves the problem's LP relaxation and checks that its optimum
// is integral: Prepare, then Maximize with the problem's objective. An
// integral optimum comes back with X rounded to the exact integers; a
// fractional one is a *FractionalError naming the variable.
func Solve(p *Problem) (*Solution, error) {
	pp, err := Prepare(p)
	if err != nil {
		return nil, err
	}
	s, err := pp.Maximize(p.objective)
	if err != nil {
		var fe *FractionalError
		if errors.As(err, &fe) {
			fe.Name = p.names[fe.Var]
		}
		return nil, err
	}
	s.Pivots += pp.Pivots
	return s, nil
}

// Prepared is a problem's constraint rows after phase 1 of the
// two-phase simplex: a feasible basis and its tableau, or the finding
// that the rows admit no solution. It does not depend on the
// objective, so one Prepared serves every objective over the same
// rows. It is immutable: Maximize works on a copy, so concurrent
// Maximize calls on one Prepared are safe.
type Prepared struct {
	// Status is Optimal when phase 1 found a feasible basis and
	// Infeasible when the rows admit no solution.
	Status Status
	// Pivots counts phase 1's pivots, the drive-out of artificial
	// variables included.
	Pivots int

	n, m int // structural variables and rows
	// w is the width of the feasible tableau: the structural and
	// slack/surplus columns, with the erased artificial columns
	// dropped. Column w holds the RHS.
	w int
	// tab holds the m constraint rows of w+1 columns, row-major.
	tab []float64
	// basis holds each row's basic column. A redundant row (all
	// zero after phase 1) keeps its artificial, whose index is
	// at least w and so never names a kept column.
	basis []int
	// maxIters is pivotLoop's budget, computed from the column
	// count before the artificial columns were dropped so that
	// phase 2 runs exactly as it would on the full tableau.
	maxIters int
}

// Prepare normalises the problem's rows (non-negative RHS) and runs
// phase 1: it minimises the sum of the artificial variables, drives
// every artificial it can out of the basis and erases their columns.
// The result depends only on the variable count and the rows — the
// content RowsKey encodes — never on names, labels or the objective.
func Prepare(p *Problem) (*Prepared, error) {
	n, m := len(p.names), len(p.cons)

	// Column layout: structural | slack/surplus | artificial | RHS.
	// A row with a negative RHS is negated, which swaps LE and GE.
	nSlack, nArt := 0, 0
	for _, c := range p.cons {
		sense := c.Sense
		if c.RHS < 0 {
			sense = flip(sense)
		}
		if sense != EQ {
			nSlack++
		}
		if sense != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	w := n + nSlack
	// One allocation holds the rows and the phase-1 objective (z)
	// row at full width; the feasible tableau is compacted into it.
	buf := make([]float64, (m+1)*(total+1))
	tab := make([][]float64, m+1)
	for i := range tab {
		tab[i] = buf[i*(total+1) : (i+1)*(total+1) : (i+1)*(total+1)]
	}
	basis := make([]int, m)
	slackAt, artAt := n, w
	artCols := make([]int, 0, nArt)
	for i, c := range p.cons {
		row := tab[i]
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= n {
				panic(fmt.Sprintf("ilp: constraint references variable %d of %d", t.Var, n))
			}
			row[t.Var] += t.Coeff
		}
		sense, rhs := c.Sense, c.RHS
		if rhs < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
			sense = flip(sense)
		}
		row[total] = rhs
		switch sense {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		case EQ:
			row[artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		}
	}

	pp := &Prepared{Status: Optimal, n: n, m: m, w: w, basis: basis, maxIters: 200 * (m + total + 1)}
	if nArt > 0 {
		// Phase 1: minimise sum of artificials == maximise
		// -(sum). z-row starts as the sum of all artificial rows
		// (negated reduced costs for basic artificials).
		z := tab[m]
		for i := 0; i < m; i++ {
			if basis[i] < w {
				continue // an LE row: its slack is basic
			}
			for j := 0; j <= total; j++ {
				z[j] -= tab[i][j]
			}
		}
		// Basic columns must have zero reduced cost: each
		// artificial's own +1 entry was just subtracted, but its
		// objective coefficient (-1) cancels it.
		for _, c := range artCols {
			z[c] = 0
		}
		n1, err := pivotLoop(tab, basis, total, pp.maxIters)
		pp.Pivots += n1
		if err != nil {
			return nil, err
		}
		if z[total] < -1e-6 {
			pp.Status = Infeasible
			return pp, nil
		}
		// Drive artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] < w {
				continue
			}
			pivoted := false
			for j := 0; j < w; j++ {
				if math.Abs(tab[i][j]) > tol {
					pivot(tab, basis, i, j, total)
					pp.Pivots++
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it so it cannot
				// interfere.
				clear(tab[i][:w])
			}
		}
	}

	// Drop the artificial columns (and the z row), which phase 2
	// must never re-enter. They are erased rather than carried as
	// zeros: a zero column changes no arithmetic of a pivot, and
	// column selection skips it, so phase 2 runs bit for bit as on
	// the full tableau. Row i moves to buf[i*(w+1):], which never
	// lies past its old start.
	for i := 0; i < m; i++ {
		row := tab[i]
		rhs := row[total]
		copy(buf[i*(w+1):], row[:w])
		buf[i*(w+1)+w] = rhs
	}
	pp.tab = buf[: m*(w+1) : m*(w+1)]
	return pp, nil
}

// flip swaps LE and GE, for a row multiplied by -1.
func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	}
	return s
}

// Maximize solves the prepared rows under the objective obj (one
// coefficient per variable): phase 2 on a copy of the feasible
// tableau, then the integrality check. An Infeasible Prepared gives an
// Infeasible Solution. A fractional optimum is a *FractionalError
// without a Name.
func (pp *Prepared) Maximize(obj []float64) (*Solution, error) {
	s, err := pp.maximizeLP(obj)
	if err != nil || s.Status != Optimal {
		return s, err
	}
	for i, v := range s.X {
		r := math.Round(v)
		if math.Abs(v-r) > intTol {
			return nil, &FractionalError{Var: i, Value: v}
		}
		s.X[i] = r
	}
	return s, nil
}

// maximizeLP is Maximize without the integrality check: the LP
// relaxation's optimum.
func (pp *Prepared) maximizeLP(obj []float64) (*Solution, error) {
	if len(obj) != pp.n {
		panic(fmt.Sprintf("ilp: objective of %d coefficients for %d variables", len(obj), pp.n))
	}
	if pp.Status != Optimal {
		return &Solution{Status: pp.Status}, nil
	}
	n, m, w := pp.n, pp.m, pp.w
	buf := make([]float64, (m+1)*(w+1))
	copy(buf, pp.tab)
	tab := make([][]float64, m+1)
	for i := range tab {
		tab[i] = buf[i*(w+1) : (i+1)*(w+1) : (i+1)*(w+1)]
	}
	basis := append([]int(nil), pp.basis...)

	// Install the objective. z-row: -c_j plus corrections for basic
	// variables.
	z := tab[m]
	for j := 0; j < n; j++ {
		z[j] = -obj[j]
	}
	for i := 0; i < m; i++ {
		b := basis[i]
		if b < n && obj[b] != 0 {
			c := obj[b]
			for j := 0; j <= w; j++ {
				z[j] += c * tab[i][j]
			}
		}
	}
	pivots, err := pivotLoop(tab, basis, w, pp.maxIters)
	if err != nil {
		if err == errUnbounded {
			return &Solution{Status: Unbounded, Pivots: pivots}, nil
		}
		return nil, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = tab[i][w]
		}
	}
	return &Solution{Status: Optimal, Value: z[w], X: x, Pivots: pivots}, nil
}

var errUnbounded = fmt.Errorf("ilp: unbounded")

// pivotLoop runs simplex pivots on a tableau whose RHS is column total
// until optimality, returning the number of pivots performed. It uses
// Dantzig's rule with a switch to Bland's rule after half of maxIters,
// guaranteeing termination.
func pivotLoop(tab [][]float64, basis []int, total, maxIters int) (int, error) {
	m := len(basis)
	z := tab[m]
	blandAfter := maxIters / 2
	for iter := 0; ; iter++ {
		if iter > maxIters {
			return iter, fmt.Errorf("ilp: simplex did not converge in %d iterations", maxIters)
		}
		// Entering column: most negative reduced cost (Dantzig),
		// or first negative (Bland).
		col := -1
		if iter < blandAfter {
			best := -tol
			for j := 0; j < total; j++ {
				if z[j] < best {
					best = z[j]
					col = j
				}
			}
		} else {
			for j := 0; j < total; j++ {
				if z[j] < -tol {
					col = j
					break
				}
			}
		}
		if col < 0 {
			return iter, nil // optimal
		}
		// Ratio test; Bland tie-break on basis index.
		row, bestRatio := -1, math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][col]
			if a <= tol {
				continue
			}
			r := tab[i][total] / a
			if r < bestRatio-tol || (r < bestRatio+tol && (row < 0 || basis[i] < basis[row])) {
				bestRatio = r
				row = i
			}
		}
		if row < 0 {
			return iter, errUnbounded
		}
		pivot(tab, basis, row, col, total)
	}
}

// pivot performs a full tableau pivot on (row, col).
func pivot(tab [][]float64, basis []int, row, col, total int) {
	pr := tab[row]
	inv := 1 / pr[col]
	for j := 0; j <= total; j++ {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		ri := tab[i]
		for j := 0; j <= total; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // exact
	}
	basis[row] = col
}

// WriteLP renders the problem in a CPLEX-LP-like text format for
// debugging, mirroring the ILP dumps the paper's toolchain produced.
// Each row's terms are written in the order they were given.
func (p *Problem) WriteLP() string {
	var sb strings.Builder
	sb.WriteString("Maximize\n obj:")
	for i, c := range p.objective {
		if c != 0 {
			fmt.Fprintf(&sb, " %+g %s", c, p.names[i])
		}
	}
	sb.WriteString("\nSubject To\n")
	for k, c := range p.cons {
		label := c.Label
		if label == "" {
			label = fmt.Sprintf("c%d", k)
		}
		fmt.Fprintf(&sb, " %s:", label)
		for _, t := range c.Terms {
			fmt.Fprintf(&sb, " %+g %s", t.Coeff, p.names[t.Var])
		}
		fmt.Fprintf(&sb, " %s %g\n", c.Sense, c.RHS)
	}
	sb.WriteString("Generals\n")
	for _, name := range p.names {
		fmt.Fprintf(&sb, " %s", name)
	}
	sb.WriteString("\nEnd\n")
	return sb.String()
}
