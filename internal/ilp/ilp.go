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
package ilp

import (
	"errors"
	"fmt"
	"math"
	"sort"
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

// Constraint is sum(Coeffs[i] * x_i) Sense RHS.
type Constraint struct {
	// Coeffs maps variable index to coefficient; absent means 0.
	Coeffs map[int]float64
	Sense  Sense
	RHS    float64
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
// coefficient and returns its index.
func (p *Problem) AddVar(name string, objCoeff float64) int {
	p.names = append(p.names, name)
	p.objective = append(p.objective, objCoeff)
	return len(p.names) - 1
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.names) }

// AddConstraint appends a constraint. Coefficient maps are retained,
// not copied.
func (p *Problem) AddConstraint(c Constraint) { p.cons = append(p.cons, c) }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

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
	// Pivots counts simplex pivots across both phases — the
	// solver-effort metric the pipeline's Stats() reports.
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

// Solve solves the problem's LP relaxation and checks that its optimum
// is integral. An integral optimum comes back with X rounded to the
// exact integers; a fractional one is an error naming the variable.
func Solve(p *Problem) (*Solution, error) {
	s, err := solveLP(p)
	if err != nil || s.Status != Optimal {
		return s, err
	}
	for i, v := range s.X {
		r := math.Round(v)
		if math.Abs(v-r) > intTol {
			return nil, fmt.Errorf("%w (%s=%g); IPET expects integral flows", errFractional, p.names[i], v)
		}
		s.X[i] = r
	}
	return s, nil
}

// solveLP solves the LP relaxation using a two-phase dense simplex.
func solveLP(p *Problem) (*Solution, error) {
	n := len(p.names)

	// Collect rows: every constraint, with RHS made non-negative.
	type row struct {
		coeffs []float64
		sense  Sense
		rhs    float64
	}
	rows := make([]row, len(p.cons))
	for k, c := range p.cons {
		r := row{coeffs: make([]float64, n), sense: c.Sense, rhs: c.RHS}
		for v, coeff := range c.Coeffs {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("ilp: constraint references variable %d of %d", v, n))
			}
			r.coeffs[v] += coeff
		}
		if r.rhs < 0 {
			for i := range r.coeffs {
				r.coeffs[i] = -r.coeffs[i]
			}
			r.rhs = -r.rhs
			switch r.sense {
			case LE:
				r.sense = GE
			case GE:
				r.sense = LE
			}
		}
		rows[k] = r
	}

	m := len(rows)
	// Column layout: structural | slack/surplus | artificial | RHS.
	nSlack := 0
	for _, r := range rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	nArt := 0
	for _, r := range rows {
		if r.sense != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	tab := make([][]float64, m+1) // last row is the objective (z) row
	for i := range tab {
		tab[i] = make([]float64, total+1)
	}
	basis := make([]int, m)
	slackAt, artAt := n, n+nSlack
	artCols := make([]int, 0, nArt)
	for i, r := range rows {
		copy(tab[i], r.coeffs)
		tab[i][total] = r.rhs
		switch r.sense {
		case LE:
			tab[i][slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			tab[i][slackAt] = -1
			slackAt++
			tab[i][artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		case EQ:
			tab[i][artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		}
	}

	z := tab[m]
	pivots := 0
	if nArt > 0 {
		// Phase 1: minimise sum of artificials == maximise
		// -(sum). z-row starts as the sum of all artificial rows
		// (negated reduced costs for basic artificials).
		for i, r := range rows {
			if r.sense == LE {
				continue
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
		n1, err := pivotLoop(tab, basis, total)
		pivots += n1
		if err != nil {
			return nil, err
		}
		if z[total] < -1e-6 {
			return &Solution{Status: Infeasible, Pivots: pivots}, nil
		}
		// Drive artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if !isArt(basis[i], n+nSlack) {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(tab[i][j]) > tol {
					pivot(tab, basis, i, j, total)
					pivots++
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it so it cannot
				// interfere.
				for j := 0; j <= total; j++ {
					if j < n+nSlack {
						tab[i][j] = 0
					}
				}
			}
		}
		// Erase artificial columns so phase 2 cannot re-enter them.
		for _, c := range artCols {
			for i := 0; i <= m; i++ {
				tab[i][c] = 0
			}
		}
	}

	// Phase 2: install the real objective. z-row: -c_j plus
	// corrections for basic variables.
	for j := 0; j <= total; j++ {
		z[j] = 0
	}
	for j := 0; j < n; j++ {
		z[j] = -p.objective[j]
	}
	for i := 0; i < m; i++ {
		b := basis[i]
		if b < n && p.objective[b] != 0 {
			c := p.objective[b]
			for j := 0; j <= total; j++ {
				z[j] += c * tab[i][j]
			}
		}
	}
	n2, err := pivotLoop(tab, basis, total)
	pivots += n2
	if err != nil {
		if err == errUnbounded {
			return &Solution{Status: Unbounded, Pivots: pivots}, nil
		}
		return nil, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = tab[i][total]
		}
	}
	return &Solution{Status: Optimal, Value: z[total], X: x, Pivots: pivots}, nil
}

func isArt(col, artStart int) bool { return col >= artStart }

var errUnbounded = fmt.Errorf("ilp: unbounded")

// pivotLoop runs simplex pivots until optimality, returning the number
// of pivots performed. It uses Dantzig's rule with a switch to Bland's
// rule after a stall budget, guaranteeing termination.
func pivotLoop(tab [][]float64, basis []int, total int) (int, error) {
	m := len(basis)
	z := tab[m]
	maxIters := 200 * (m + total + 1)
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
		vars := make([]int, 0, len(c.Coeffs))
		for v := range c.Coeffs {
			vars = append(vars, v)
		}
		sort.Ints(vars)
		for _, v := range vars {
			fmt.Fprintf(&sb, " %+g %s", c.Coeffs[v], p.names[v])
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
