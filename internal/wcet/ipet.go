package wcet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"verikern/internal/cfg"
	"verikern/internal/ilp"
)

// edgeKey identifies a CFG edge by endpoints; parallel edges cannot
// arise from the image builder.
type edgeKey struct{ from, to cfg.NodeID }

// rowSet is the part of one entry's IPET problem (the IPET of Li &
// Malik the paper builds on, §5.2) that the hardware does not change:
// one integer variable per CFG edge, in node order and then successor
// order; the flow, loop-bound and user-constraint rows as sorted
// sparse terms; and the rows' phase-1 basis. It is the value of the
// cache's rows tier, immutable once built. Hardware enters only the
// objective, which each analysis prices (objective).
type rowSet struct {
	// p holds the variables and rows; its own objective is zero.
	p *ilp.Problem
	// pp is the rows' feasible basis after phase 1, shared by every
	// row set with the same rows (ilp RowsKey).
	pp *ilp.Prepared
	g  *cfg.Graph
	// first[v] is the variable of node v's first out-edge, so edge
	// (v, Succs[k]) is variable first[v]+k; first[len(g.Nodes)] is
	// the variable count.
	first []int
	// named builds variable names and row labels, which only the LP
	// dump (Analyzer.KeepLP) shows.
	named bool
	// pend collects the terms of the row being built; terms is the
	// store every finished row's terms are carved from.
	pend, terms []ilp.Term
}

// newRowSet lays out g's edge variables; it rejects parallel edges,
// which one variable per (from, to) pair cannot tell apart.
func newRowSet(g *cfg.Graph, named bool) (*rowSet, error) {
	rs := &rowSet{p: ilp.NewProblem(), g: g, first: make([]int, len(g.Nodes)+1), named: named}
	for _, n := range g.Nodes {
		for k, s := range n.Succs {
			if slices.Contains(n.Succs[:k], s) {
				return nil, fmt.Errorf("wcet: parallel edge %v", edgeKey{n.ID, s})
			}
			name := ""
			if named {
				name = fmt.Sprintf("e%d_%d", n.ID, s)
			}
			rs.p.AddVar(name, 0)
		}
		rs.first[n.ID+1] = rs.first[n.ID] + len(n.Succs)
	}
	// Flow rows hold about two terms per edge.
	rs.terms = make([]ilp.Term, 0, 2*rs.first[len(g.Nodes)]+len(g.Loops))
	return rs, nil
}

// edgeVar returns the variable of the edge from -> to.
func (rs *rowSet) edgeVar(from, to cfg.NodeID) int {
	for k, s := range rs.g.Node(from).Succs {
		if s == to {
			return rs.first[from] + k
		}
	}
	panic(fmt.Sprintf("wcet: no edge %d -> %d", from, to))
}

// varName names an edge variable as the LP dump does: e<from>_<to>.
func (rs *rowSet) varName(v int) string {
	from := sort.Search(len(rs.g.Nodes), func(n int) bool { return rs.first[n+1] > v })
	return fmt.Sprintf("e%d_%d", from, rs.g.Node(cfg.NodeID(from)).Succs[v-rs.first[from]])
}

// term adds coeff * x_v to the row being built.
func (rs *rowSet) term(v int, coeff float64) {
	rs.pend = append(rs.pend, ilp.Term{Var: v, Coeff: coeff})
}

// inflow adds a node's execution count (the sum of its in-edge
// variables), scaled, to the row being built; it returns the constant
// part (scale for the graph entry's virtual in-edge).
func (rs *rowSet) inflow(n cfg.NodeID, scale float64) float64 {
	constant := 0.0
	if n == rs.g.Entry {
		constant = scale
	}
	for _, p := range rs.g.Node(n).Preds {
		rs.term(rs.edgeVar(p, n), scale)
	}
	return constant
}

// addRow finishes the row being built: its terms sorted by variable,
// a repeated variable's coefficients summed. Each sum starts from +0,
// so a coefficient that cancels (or a lone -0) is stored as +0 and
// kept, which the LP dump prints.
func (rs *rowSet) addRow(sense ilp.Sense, rhs float64, label string) {
	pend := rs.pend
	slices.SortFunc(pend, func(a, b ilp.Term) int { return cmp.Compare(a.Var, b.Var) })
	start := len(rs.terms)
	for i := 0; i < len(pend); {
		v, c := pend[i].Var, 0.0
		for ; i < len(pend) && pend[i].Var == v; i++ {
			c += pend[i].Coeff
		}
		rs.terms = append(rs.terms, ilp.Term{Var: v, Coeff: c})
	}
	rs.pend = pend[:0]
	end := len(rs.terms)
	rs.p.AddConstraint(ilp.Constraint{Terms: rs.terms[start:end:end], Sense: sense, RHS: rhs, Label: label})
}

// label formats a row label when the problem is named, and is empty
// otherwise; an unnamed problem formats nothing.
func (rs *rowSet) label(format string, args ...int) string {
	if !rs.named {
		return ""
	}
	as := make([]any, len(args))
	for i, a := range args {
		as[i] = a
	}
	return fmt.Sprintf(format, as...)
}

// rows returns the entry's row set over g, from the cache's rows tier
// when the same graph was analysed before under the same constraint set
// and KeepLP (rowsKey). The rows read nothing of the hardware, so every
// hardware configuration shares one entry.
func (a *Analyzer) rows(ctx context.Context, g *cfg.Graph, entry string) (*rowSet, error) {
	if a.Cache == nil {
		return a.buildRows(ctx, g)
	}
	rs, _, err := get(ctx, a.Cache, a.Metrics, a.Cache.rows, a.rowsKey(entry),
		func() (*rowSet, error) { return a.buildRows(ctx, g) })
	return rs, err
}

// buildRows encodes flow conservation, loop bounds and the user
// constraints over g's edge variables, and finds the rows' phase-1
// basis (prepared).
func (a *Analyzer) buildRows(ctx context.Context, g *cfg.Graph) (*rowSet, error) {
	rs, err := newRowSet(g, a.KeepLP)
	if err != nil {
		return nil, err
	}

	// Flow conservation: for every node except the exit,
	// inflow (+ virtual entry) = outflow.
	for _, n := range g.Nodes {
		if n.ID == g.Exit {
			continue
		}
		constant := rs.inflow(n.ID, 1)
		for k := range n.Succs {
			rs.term(rs.first[n.ID]+k, -1)
		}
		rs.addRow(ilp.EQ, -constant, rs.label("flow_%d", int(n.ID)))
	}
	// The exit executes exactly once.
	rs.inflow(g.Exit, 1)
	rs.addRow(ilp.EQ, 1, rs.label("exit_once"))

	// Loop bounds: back-edge flow <= bound * entry-edge flow.
	for li, l := range g.Loops {
		for _, src := range l.BackEdges {
			rs.term(rs.edgeVar(src, l.Header), 1)
		}
		constant := 0.0
		for _, p := range g.Node(l.Header).Preds {
			if l.Body[p] {
				continue // back edge, already counted
			}
			rs.term(rs.edgeVar(p, l.Header), -float64(l.Bound))
		}
		if l.Header == g.Entry {
			constant = float64(l.Bound)
		}
		rs.addRow(ilp.LE, constant, rs.label("loop_%d", li))
	}

	// User constraints (§5.2).
	for ci, uc := range a.Constraints {
		if err := rs.addUser(uc, ci); err != nil {
			return nil, err
		}
	}

	if rs.pp, err = a.prepared(ctx, rs.p); err != nil {
		return nil, err
	}
	return rs, nil
}

// objective prices the row set's edge variables for one hardware
// configuration: an edge's coefficient is the cost of its target node
// (every execution of a node is an entry through exactly one in-edge,
// or the virtual entry edge) plus, on a loop-entry edge, the loop's
// one-off first-miss cost (persistence refinement). It returns the
// objective and the loop-entry share of each edge's cost.
func (rs *rowSet) objective(nodeCost, loopEntryCost []uint64) ([]float64, []uint64) {
	g := rs.g
	extra := make([]uint64, rs.p.NumVars())
	for li, l := range g.Loops {
		if loopEntryCost == nil || loopEntryCost[li] == 0 {
			continue
		}
		for _, p := range g.Node(l.Header).Preds {
			if !l.Body[p] {
				extra[rs.edgeVar(p, l.Header)] += loopEntryCost[li]
			}
		}
	}
	obj := make([]float64, len(extra))
	for _, n := range g.Nodes {
		for k, s := range n.Succs {
			v := rs.first[n.ID] + k
			obj[v] = float64(nodeCost[s] + extra[v])
		}
	}
	return obj, extra
}

// solveIPET maximises the entry's row set (rows) under the objective
// the classified node costs and per-loop first-miss costs price,
// checks that the solution is one walk from the entry (checkTrail),
// and returns a Result carrying the bound, the per-node counts and the
// problem dimensions, plus the solved per-edge flows (only non-zero
// edges, in variable order) for path reconstruction. The bound is
// summed from the integer counts, not read off the LP.
func (a *Analyzer) solveIPET(ctx context.Context, g *cfg.Graph, nodeCost, loopEntryCost []uint64, entry string) (*Result, []edgeCount, error) {
	rs, err := a.rows(ctx, g, entry)
	if err != nil {
		return nil, nil, err
	}
	obj, extra := rs.objective(nodeCost, loopEntryCost)

	out := &Result{
		LPVars:        rs.p.NumVars(),
		LPConstraints: rs.p.NumConstraints(),
	}
	a.Metrics.Add("ilp.vars", uint64(out.LPVars))
	a.Metrics.Add("ilp.constraints", uint64(out.LPConstraints))
	if a.KeepLP {
		out.LPText = rs.p.WriteLP(obj)
	}

	solveStart := time.Now()
	stopSolve := a.Metrics.Stage("wcet.ilp_solve")
	sol, err := rs.pp.Maximize(obj)
	stopSolve()
	if sol != nil {
		a.Metrics.Add("ilp.pivots", uint64(sol.Pivots))
		if sol.Warm {
			a.Metrics.Add("ilp.warm_hits", 1)
		}
	}
	if err != nil {
		var fe *ilp.FractionalError
		if errors.As(err, &fe) {
			fe.Name = rs.varName(fe.Var)
		}
		return nil, nil, fmt.Errorf("wcet: %s: %w", entry, err)
	}
	out.SolveTime = time.Since(solveStart)
	if sol.Status != ilp.Optimal {
		return nil, nil, fmt.Errorf("wcet: %s: ILP %v", entry, sol.Status)
	}

	// Node counts from edge counts, in variable order.
	counts := make([]int64, len(g.Nodes))
	counts[g.Entry] = 1
	edges := make([]edgeCount, 0, len(obj))
	var total uint64
	total += nodeCost[g.Entry] // virtual entry edge
	for _, n := range g.Nodes {
		for k, s := range n.Succs {
			v := rs.first[n.ID] + k
			c := int64(sol.X[v]) // Maximize returns exact integers
			counts[s] += c
			if c > 0 {
				edges = append(edges, edgeCount{edgeKey{n.ID, s}, c})
				total += uint64(c) * (nodeCost[s] + extra[v])
			}
		}
	}
	out.Counts = counts
	if err := checkTrail(g, edges); err != nil {
		return nil, nil, fmt.Errorf("wcet: %s: %w", entry, err)
	}
	out.Cycles = total
	return out, edges, nil
}

// prepared returns the phase-1 basis of p's rows, from the cache's
// prepared tier when a problem with the same rows (ilp RowsKey) was
// prepared before. Phase 1 is a deterministic function of those rows,
// so a shared basis is bit for bit the one a fresh Prepare builds.
func (a *Analyzer) prepared(ctx context.Context, p *ilp.Problem) (*ilp.Prepared, error) {
	prepare := func() (*ilp.Prepared, error) {
		a.Metrics.Add("ilp.prepares", 1)
		pp, err := ilp.Prepare(p)
		if err != nil {
			return nil, err
		}
		a.Metrics.Add("ilp.pivots", uint64(pp.Pivots))
		return pp, nil
	}
	if a.Cache == nil {
		return prepare()
	}
	pp, _, err := get(ctx, a.Cache, a.Metrics, a.Cache.prepared, p.RowsKey(), prepare)
	return pp, err
}

// addUser encodes one user constraint. Conflicts and Consistent apply
// per inlined instance of the scoping function, matched by context;
// Executes applies globally.
func (rs *rowSet) addUser(uc UserConstraint, idx int) error {
	switch uc.Kind {
	case Executes:
		nodes := rs.g.NodesOf(uc.In, uc.A)
		if len(nodes) == 0 {
			// The block is not in this entry point's call
			// tree: the constraint is vacuous here.
			return nil
		}
		constant := 0.0
		for _, n := range nodes {
			constant += rs.inflow(n, 1)
		}
		rs.addRow(ilp.LE, float64(uc.N)-constant, rs.label("user%d_executes", idx))
		return nil
	case Conflicts, Consistent:
		as := rs.g.NodesOf(uc.In, uc.A)
		bs := rs.g.NodesOf(uc.In, uc.B)
		if len(as) == 0 && len(bs) == 0 {
			return nil
		}
		if len(as) != len(bs) {
			return fmt.Errorf("wcet: constraint %d: %q has %d copies of %s but %d of %s",
				idx, uc.In, len(as), uc.A, len(bs), uc.B)
		}
		// Instances are matched by shared context: NodesOf
		// returns copies in creation order, and blocks of one
		// function instance are created together.
		for i := range as {
			na, nb := as[i], bs[i]
			if rs.g.Node(na).Context != rs.g.Node(nb).Context {
				return fmt.Errorf("wcet: constraint %d: context mismatch %q vs %q",
					idx, rs.g.Node(na).Context, rs.g.Node(nb).Context)
			}
			if uc.Kind == Consistent {
				// count(a) - count(b) = 0.
				c := rs.inflow(na, 1)
				c += rs.inflow(nb, -1)
				rs.addRow(ilp.EQ, -c, rs.label("user%d_consistent_%d", idx, i))
				continue
			}
			// Conflicts: count(a) + count(b) <= invocations of
			// the instance (its entry block's count).
			entryNode, err := rs.instanceEntry(uc.In, rs.g.Node(na).Context)
			if err != nil {
				return fmt.Errorf("wcet: constraint %d: %w", idx, err)
			}
			c := rs.inflow(na, 1)
			c += rs.inflow(nb, 1)
			c += rs.inflow(entryNode, -1)
			rs.addRow(ilp.LE, -c, rs.label("user%d_conflicts_%d", idx, i))
		}
		return nil
	}
	return fmt.Errorf("wcet: unknown constraint kind %d", uc.Kind)
}

// instanceEntry finds the inlined entry node of the given function
// instance (matched by context). The inliner creates each instance's
// entry block first, so the first node of fn in creation order carries
// the entry block's name.
func (rs *rowSet) instanceEntry(fn, context string) (cfg.NodeID, error) {
	var entryName string
	for _, n := range rs.g.Nodes {
		if n.Block != nil && n.Func == fn {
			entryName = n.Block.Name
			break
		}
	}
	for _, n := range rs.g.NodesOf(fn, entryName) {
		if rs.g.Node(n).Context == context {
			return n, nil
		}
	}
	return cfg.None, fmt.Errorf("no instance of %s with context %q", fn, context)
}
