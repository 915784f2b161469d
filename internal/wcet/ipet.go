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

// ipetProblem carries the ILP encoding of one entry point's flow
// problem (the IPET of Li & Malik the paper builds on, §5.2): one
// integer variable per CFG edge, in node order and then successor
// order, and the constraint rows as sorted sparse terms.
type ipetProblem struct {
	p *ilp.Problem
	g *cfg.Graph
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

// newIPETProblem lays out g's edge variables; it rejects parallel
// edges, which one variable per (from, to) pair cannot tell apart.
func newIPETProblem(g *cfg.Graph, named bool) (*ipetProblem, error) {
	ip := &ipetProblem{p: ilp.NewProblem(), g: g, first: make([]int, len(g.Nodes)+1), named: named}
	for _, n := range g.Nodes {
		for k, s := range n.Succs {
			if slices.Contains(n.Succs[:k], s) {
				return nil, fmt.Errorf("wcet: parallel edge %v", edgeKey{n.ID, s})
			}
		}
		ip.first[n.ID+1] = ip.first[n.ID] + len(n.Succs)
	}
	// Flow rows hold about two terms per edge.
	ip.terms = make([]ilp.Term, 0, 2*ip.first[len(g.Nodes)]+len(g.Loops))
	return ip, nil
}

// edgeVar returns the variable of the edge from -> to.
func (ip *ipetProblem) edgeVar(from, to cfg.NodeID) int {
	for k, s := range ip.g.Node(from).Succs {
		if s == to {
			return ip.first[from] + k
		}
	}
	panic(fmt.Sprintf("wcet: no edge %d -> %d", from, to))
}

// varName names an edge variable as the LP dump does: e<from>_<to>.
func (ip *ipetProblem) varName(v int) string {
	from := sort.Search(len(ip.g.Nodes), func(n int) bool { return ip.first[n+1] > v })
	return fmt.Sprintf("e%d_%d", from, ip.g.Node(cfg.NodeID(from)).Succs[v-ip.first[from]])
}

// term adds coeff * x_v to the row being built.
func (ip *ipetProblem) term(v int, coeff float64) {
	ip.pend = append(ip.pend, ilp.Term{Var: v, Coeff: coeff})
}

// inflow adds a node's execution count (the sum of its in-edge
// variables), scaled, to the row being built; it returns the constant
// part (scale for the graph entry's virtual in-edge).
func (ip *ipetProblem) inflow(n cfg.NodeID, scale float64) float64 {
	constant := 0.0
	if n == ip.g.Entry {
		constant = scale
	}
	for _, p := range ip.g.Node(n).Preds {
		ip.term(ip.edgeVar(p, n), scale)
	}
	return constant
}

// addRow finishes the row being built: its terms sorted by variable,
// a repeated variable's coefficients summed. Each sum starts from +0,
// so a coefficient that cancels (or a lone -0) is stored as +0 and
// kept, which the LP dump prints.
func (ip *ipetProblem) addRow(sense ilp.Sense, rhs float64, label string) {
	pend := ip.pend
	slices.SortFunc(pend, func(a, b ilp.Term) int { return cmp.Compare(a.Var, b.Var) })
	start := len(ip.terms)
	for i := 0; i < len(pend); {
		v, c := pend[i].Var, 0.0
		for ; i < len(pend) && pend[i].Var == v; i++ {
			c += pend[i].Coeff
		}
		ip.terms = append(ip.terms, ilp.Term{Var: v, Coeff: c})
	}
	ip.pend = pend[:0]
	end := len(ip.terms)
	ip.p.AddConstraint(ilp.Constraint{Terms: ip.terms[start:end:end], Sense: sense, RHS: rhs, Label: label})
}

// label formats a row label when the problem is named, and is empty
// otherwise; an unnamed problem formats nothing.
func (ip *ipetProblem) label(format string, args ...int) string {
	if !ip.named {
		return ""
	}
	as := make([]any, len(args))
	for i, a := range args {
		as[i] = a
	}
	return fmt.Sprintf(format, as...)
}

// solveIPET encodes flow conservation, loop bounds and user constraints
// into an ILP over the classified node costs and the per-loop first-miss
// costs, solves it, checks that the solution is one walk from the entry
// (checkTrail), and returns a Result carrying the bound, the per-node
// counts and the problem dimensions, plus the solved per-edge flows
// (only non-zero edges, in variable order) for path reconstruction.
func (a *Analyzer) solveIPET(ctx context.Context, g *cfg.Graph, nodeCost, loopEntryCost []uint64, entry string) (*Result, []edgeCount, error) {
	ip, err := newIPETProblem(g, a.KeepLP)
	if err != nil {
		return nil, nil, err
	}
	nVars := ip.first[len(g.Nodes)]

	// Loop-entry edges additionally carry the loop's one-off
	// first-miss cost (persistence refinement).
	extra := make([]uint64, nVars)
	for li, l := range g.Loops {
		if loopEntryCost == nil || loopEntryCost[li] == 0 {
			continue
		}
		for _, p := range g.Node(l.Header).Preds {
			if !l.Body[p] {
				extra[ip.edgeVar(p, l.Header)] += loopEntryCost[li]
			}
		}
	}

	// One integer variable per edge; the objective coefficient is
	// the cost of the edge's target node (every execution of a node
	// is an entry through exactly one in-edge, or the virtual entry
	// edge) plus any loop-entry first-miss charge. Only the
	// objective depends on the hardware.
	for _, n := range g.Nodes {
		for k, s := range n.Succs {
			name := ""
			if ip.named {
				name = fmt.Sprintf("e%d_%d", n.ID, s)
			}
			ip.p.AddVar(name, float64(nodeCost[s]+extra[ip.first[n.ID]+k]))
		}
	}

	// Flow conservation: for every node except the exit,
	// inflow (+ virtual entry) = outflow.
	for _, n := range g.Nodes {
		if n.ID == g.Exit {
			continue
		}
		constant := ip.inflow(n.ID, 1)
		for k := range n.Succs {
			ip.term(ip.first[n.ID]+k, -1)
		}
		ip.addRow(ilp.EQ, -constant, ip.label("flow_%d", int(n.ID)))
	}
	// The exit executes exactly once.
	ip.inflow(g.Exit, 1)
	ip.addRow(ilp.EQ, 1, ip.label("exit_once"))

	// Loop bounds: back-edge flow <= bound * entry-edge flow.
	for li, l := range g.Loops {
		for _, src := range l.BackEdges {
			ip.term(ip.edgeVar(src, l.Header), 1)
		}
		constant := 0.0
		for _, p := range g.Node(l.Header).Preds {
			if l.Body[p] {
				continue // back edge, already counted
			}
			ip.term(ip.edgeVar(p, l.Header), -float64(l.Bound))
		}
		if l.Header == g.Entry {
			constant = float64(l.Bound)
		}
		ip.addRow(ilp.LE, constant, ip.label("loop_%d", li))
	}

	// User constraints (§5.2).
	for ci, uc := range a.Constraints {
		if err := ip.addUser(uc, ci); err != nil {
			return nil, nil, err
		}
	}

	out := &Result{
		LPVars:        ip.p.NumVars(),
		LPConstraints: ip.p.NumConstraints(),
	}
	a.Metrics.Add("ilp.vars", uint64(out.LPVars))
	a.Metrics.Add("ilp.constraints", uint64(out.LPConstraints))
	if a.KeepLP {
		out.LPText = ip.p.WriteLP()
	}

	solveStart := time.Now()
	stopSolve := a.Metrics.Stage("wcet.ilp_solve")
	sol, err := a.solveILP(ctx, ip.p)
	stopSolve()
	if err != nil {
		var fe *ilp.FractionalError
		if errors.As(err, &fe) {
			fe.Name = ip.varName(fe.Var)
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
	edges := make([]edgeCount, 0, nVars)
	var total uint64
	total += nodeCost[g.Entry] // virtual entry edge
	for _, n := range g.Nodes {
		for k, s := range n.Succs {
			v := ip.first[n.ID] + k
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

// solveILP solves p: phase 1 through the cache's prepared tier (afresh
// when no cache is set), then phase 2 under p's objective.
func (a *Analyzer) solveILP(ctx context.Context, p *ilp.Problem) (*ilp.Solution, error) {
	pp, err := a.prepared(ctx, p)
	if err != nil {
		return nil, err
	}
	sol, err := pp.Maximize(p.Objective())
	if sol != nil {
		a.Metrics.Add("ilp.pivots", uint64(sol.Pivots))
	}
	return sol, err
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
func (ip *ipetProblem) addUser(uc UserConstraint, idx int) error {
	switch uc.Kind {
	case Executes:
		nodes := ip.g.NodesOf(uc.In, uc.A)
		if len(nodes) == 0 {
			// The block is not in this entry point's call
			// tree: the constraint is vacuous here.
			return nil
		}
		constant := 0.0
		for _, n := range nodes {
			constant += ip.inflow(n, 1)
		}
		ip.addRow(ilp.LE, float64(uc.N)-constant, ip.label("user%d_executes", idx))
		return nil
	case Conflicts, Consistent:
		as := ip.g.NodesOf(uc.In, uc.A)
		bs := ip.g.NodesOf(uc.In, uc.B)
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
			if ip.g.Node(na).Context != ip.g.Node(nb).Context {
				return fmt.Errorf("wcet: constraint %d: context mismatch %q vs %q",
					idx, ip.g.Node(na).Context, ip.g.Node(nb).Context)
			}
			if uc.Kind == Consistent {
				// count(a) - count(b) = 0.
				c := ip.inflow(na, 1)
				c += ip.inflow(nb, -1)
				ip.addRow(ilp.EQ, -c, ip.label("user%d_consistent_%d", idx, i))
				continue
			}
			// Conflicts: count(a) + count(b) <= invocations of
			// the instance (its entry block's count).
			entryNode, err := ip.instanceEntry(uc.In, ip.g.Node(na).Context)
			if err != nil {
				return fmt.Errorf("wcet: constraint %d: %w", idx, err)
			}
			c := ip.inflow(na, 1)
			c += ip.inflow(nb, 1)
			c += ip.inflow(entryNode, -1)
			ip.addRow(ilp.LE, -c, ip.label("user%d_conflicts_%d", idx, i))
		}
		return nil
	}
	return fmt.Errorf("wcet: unknown constraint kind %d", uc.Kind)
}

// instanceEntry finds the inlined entry node of the given function
// instance (matched by context). The inliner creates each instance's
// entry block first, so the first node of fn in creation order carries
// the entry block's name.
func (ip *ipetProblem) instanceEntry(fn, context string) (cfg.NodeID, error) {
	var entryName string
	for _, n := range ip.g.Nodes {
		if n.Block != nil && n.Func == fn {
			entryName = n.Block.Name
			break
		}
	}
	for _, n := range ip.g.NodesOf(fn, entryName) {
		if ip.g.Node(n).Context == context {
			return n, nil
		}
	}
	return cfg.None, fmt.Errorf("no instance of %s with context %q", fn, context)
}
