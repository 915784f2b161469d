// Package ilp is a from-scratch integer linear programming solver: a
// two-phase dense simplex for the LP relaxation and branch-and-bound
// for integrality. It plays the role of the "off-the-shelf ILP solver"
// the paper feeds its IPET problems to (§5.2).
//
// Problems are maximisation over non-negative variables with <=, >=
// and = constraints. IPET flow problems are network-flow-like, so the
// LP relaxation is usually integral and branch-and-bound rarely
// branches; the solver nevertheless handles general problems.
package ilp

import (
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
// x >= 0, and x integer where Integer is set.
type Problem struct {
	names     []string
	objective []float64
	cons      []Constraint
	integer   []bool
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a variable with the given objective coefficient and
// returns its index. If integer is true the variable is constrained
// integral.
func (p *Problem) AddVar(name string, objCoeff float64, integer bool) int {
	p.names = append(p.names, name)
	p.objective = append(p.objective, objCoeff)
	p.integer = append(p.integer, integer)
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
	// X holds the variable values (meaningful when Optimal).
	X []float64
	// Pivots counts simplex pivots across both phases and all
	// branch-and-bound nodes — the solver-effort metric the
	// pipeline's Stats() reports.
	Pivots int
}

const (
	tol = 1e-7
	// maxNodes bounds branch-and-bound; IPET problems are near-
	// integral so hitting it indicates a malformed problem.
	maxNodes = 100000
)

// Solve solves the ILP.
func Solve(p *Problem) (*Solution, error) {
	lp, err := solveLP(p, nil)
	if err != nil {
		return nil, err
	}
	if lp.Status != Optimal {
		return lp, nil
	}
	if intFeasible(p, lp.X) {
		roundInts(p, lp)
		return lp, nil
	}
	return branchAndBound(p, lp)
}

// intFeasible reports whether all integer variables are integral.
func intFeasible(p *Problem, x []float64) bool {
	for i, isInt := range p.integer {
		if isInt && math.Abs(x[i]-math.Round(x[i])) > 1e-5 {
			return false
		}
	}
	return true
}

func roundInts(p *Problem, s *Solution) {
	for i, isInt := range p.integer {
		if isInt {
			s.X[i] = math.Round(s.X[i])
		}
	}
}

// bound is an extra variable bound imposed by branching.
type bound struct {
	v     int
	upper bool // true: x_v <= val; false: x_v >= val
	val   float64
}

func branchAndBound(p *Problem, root *Solution) (*Solution, error) {
	type node struct {
		bounds []bound
		relax  float64 // LP bound of parent, for pruning
	}
	var best *Solution
	stack := []node{{relax: root.Value}}
	nodes := 0
	pivots := root.Pivots
	defer func() {
		if best != nil {
			best.Pivots = pivots
		}
	}()
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		if nodes > maxNodes {
			return nil, fmt.Errorf("ilp: branch-and-bound exceeded %d nodes", maxNodes)
		}
		if best != nil && n.relax <= best.Value+tol {
			continue
		}
		lp, err := solveLP(p, n.bounds)
		if err != nil {
			return nil, err
		}
		pivots += lp.Pivots
		if lp.Status != Optimal {
			continue
		}
		if best != nil && lp.Value <= best.Value+tol {
			continue
		}
		// Find the most fractional integer variable.
		frac, fv := -1, 0.0
		for i, isInt := range p.integer {
			if !isInt {
				continue
			}
			f := math.Abs(lp.X[i] - math.Round(lp.X[i]))
			if f > 1e-5 && f > fv {
				frac, fv = i, f
			}
		}
		if frac < 0 {
			roundInts(p, lp)
			if best == nil || lp.Value > best.Value {
				best = lp
			}
			continue
		}
		lo := math.Floor(lp.X[frac])
		down := append(append([]bound{}, n.bounds...), bound{v: frac, upper: true, val: lo})
		up := append(append([]bound{}, n.bounds...), bound{v: frac, upper: false, val: lo + 1})
		stack = append(stack, node{bounds: down, relax: lp.Value}, node{bounds: up, relax: lp.Value})
	}
	if best == nil {
		return &Solution{Status: Infeasible, Pivots: pivots}, nil
	}
	return best, nil
}

// solveLP solves the LP relaxation with extra branching bounds using a
// two-phase dense simplex.
func solveLP(p *Problem, extra []bound) (*Solution, error) {
	n := len(p.names)

	// Collect rows: every constraint, with RHS made non-negative.
	type row struct {
		coeffs []float64
		sense  Sense
		rhs    float64
	}
	rows := make([]row, 0, len(p.cons)+len(extra))
	addRow := func(coeffs map[int]float64, sense Sense, rhs float64) {
		r := row{coeffs: make([]float64, n), sense: sense, rhs: rhs}
		for v, c := range coeffs {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("ilp: constraint references variable %d of %d", v, n))
			}
			r.coeffs[v] += c
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
		rows = append(rows, r)
	}
	for _, c := range p.cons {
		addRow(c.Coeffs, c.Sense, c.RHS)
	}
	for _, b := range extra {
		s := LE
		if !b.upper {
			s = GE
		}
		addRow(map[int]float64{b.v: 1}, s, b.val)
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
	for i, isInt := range p.integer {
		if isInt {
			fmt.Fprintf(&sb, " %s", p.names[i])
		}
	}
	sb.WriteString("\nEnd\n")
	return sb.String()
}
