package wcet

import (
	"fmt"
	"time"

	"verikern/internal/cfg"
	"verikern/internal/ilp"
)

// edgeKey identifies a CFG edge by endpoints; parallel edges cannot
// arise from the image builder.
type edgeKey struct{ from, to cfg.NodeID }

// ipetProblem carries the ILP encoding of one entry point's flow
// problem (the IPET of Li & Malik the paper builds on, §5.2).
type ipetProblem struct {
	p     *ilp.Problem
	edges map[edgeKey]int // edge -> variable index
	g     *cfg.Graph
}

// inflowCoeffs accumulates the coefficients of a node's execution count
// (the sum of its in-edge variables) into coeffs; it returns the
// constant part (1 for the graph entry's virtual in-edge).
func (ip *ipetProblem) inflowCoeffs(n cfg.NodeID, coeffs map[int]float64, scale float64) float64 {
	constant := 0.0
	if n == ip.g.Entry {
		constant = scale
	}
	for _, p := range ip.g.Node(n).Preds {
		coeffs[ip.edges[edgeKey{p, n}]] += scale
	}
	return constant
}

// solveIPET encodes flow conservation, loop bounds and user constraints
// into an ILP over the classified node costs and the per-loop first-miss
// costs, solves it, and returns a Result carrying the bound, the
// per-node counts and the problem dimensions, plus the solved per-edge
// flows (only non-zero edges) for path reconstruction.
func (a *Analyzer) solveIPET(g *cfg.Graph, nodeCost, loopEntryCost []uint64, entry string) (*Result, map[edgeKey]int64, error) {
	ip := &ipetProblem{p: ilp.NewProblem(), edges: make(map[edgeKey]int), g: g}

	// Loop-entry edges additionally carry the loop's one-off
	// first-miss cost (persistence refinement).
	entryExtra := make(map[edgeKey]uint64)
	for li, l := range g.Loops {
		if loopEntryCost == nil || loopEntryCost[li] == 0 {
			continue
		}
		for _, p := range g.Node(l.Header).Preds {
			if !l.Body[p] {
				entryExtra[edgeKey{p, l.Header}] += loopEntryCost[li]
			}
		}
	}

	// One integer variable per edge; the objective coefficient is
	// the cost of the edge's target node (every execution of a node
	// is an entry through exactly one in-edge, or the virtual entry
	// edge) plus any loop-entry first-miss charge.
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			k := edgeKey{n.ID, s}
			if _, dup := ip.edges[k]; dup {
				return nil, nil, fmt.Errorf("wcet: parallel edge %v", k)
			}
			name := fmt.Sprintf("e%d_%d", n.ID, s)
			ip.edges[k] = ip.p.AddVar(name, float64(nodeCost[s]+entryExtra[k]))
		}
	}

	// Flow conservation: for every node except the exit,
	// inflow (+ virtual entry) = outflow.
	for _, n := range g.Nodes {
		if n.ID == g.Exit {
			continue
		}
		coeffs := make(map[int]float64)
		constant := ip.inflowCoeffs(n.ID, coeffs, 1)
		for _, s := range n.Succs {
			coeffs[ip.edges[edgeKey{n.ID, s}]] -= 1
		}
		ip.p.AddConstraint(ilp.Constraint{
			Coeffs: coeffs,
			Sense:  ilp.EQ,
			RHS:    -constant,
			Label:  fmt.Sprintf("flow_%d", n.ID),
		})
	}
	// The exit executes exactly once.
	coeffs := make(map[int]float64)
	ip.inflowCoeffs(g.Exit, coeffs, 1)
	ip.p.AddConstraint(ilp.Constraint{Coeffs: coeffs, Sense: ilp.EQ, RHS: 1, Label: "exit_once"})

	// Loop bounds: back-edge flow <= bound * entry-edge flow.
	for li, l := range g.Loops {
		coeffs := make(map[int]float64)
		for _, src := range l.BackEdges {
			coeffs[ip.edges[edgeKey{src, l.Header}]] += 1
		}
		constant := 0.0
		for _, p := range g.Node(l.Header).Preds {
			if l.Body[p] {
				continue // back edge, already counted
			}
			coeffs[ip.edges[edgeKey{p, l.Header}]] -= float64(l.Bound)
		}
		if l.Header == g.Entry {
			constant = float64(l.Bound)
		}
		ip.p.AddConstraint(ilp.Constraint{
			Coeffs: coeffs,
			Sense:  ilp.LE,
			RHS:    constant,
			Label:  fmt.Sprintf("loop_%d", li),
		})
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
	sol, err := ilp.Solve(ip.p)
	stopSolve()
	if err != nil {
		return nil, nil, fmt.Errorf("wcet: %s: %w", entry, err)
	}
	a.Metrics.Add("ilp.pivots", uint64(sol.Pivots))
	out.SolveTime = time.Since(solveStart)
	if sol.Status != ilp.Optimal {
		return nil, nil, fmt.Errorf("wcet: %s: ILP %v", entry, sol.Status)
	}

	// Node counts from edge counts.
	counts := make([]int64, len(g.Nodes))
	counts[g.Entry] = 1
	edgeCounts := make(map[edgeKey]int64, len(ip.edges))
	for k, v := range ip.edges {
		c := int64(sol.X[v]) // Solve returns exact integers
		counts[k.to] += c
		if c > 0 {
			edgeCounts[k] = c
		}
	}
	out.Counts = counts

	var total uint64
	total += nodeCost[g.Entry] // virtual entry edge
	for k, c := range edgeCounts {
		total += uint64(c) * (nodeCost[k.to] + entryExtra[k])
	}
	out.Cycles = total
	return out, edgeCounts, nil
}

// addUser encodes one user constraint. Conflicts and Consistent apply
// per inlined instance of the scoping function, matched by context;
// Executes applies globally.
func (ip *ipetProblem) addUser(uc UserConstraint, idx int) error {
	switch uc.Kind {
	case Executes:
		coeffs := make(map[int]float64)
		constant := 0.0
		nodes := ip.g.NodesOf(uc.In, uc.A)
		if len(nodes) == 0 {
			// The block is not in this entry point's call
			// tree: the constraint is vacuous here.
			return nil
		}
		for _, n := range nodes {
			constant += ip.inflowCoeffs(n, coeffs, 1)
		}
		ip.p.AddConstraint(ilp.Constraint{
			Coeffs: coeffs, Sense: ilp.LE, RHS: float64(uc.N) - constant,
			Label: fmt.Sprintf("user%d_executes", idx),
		})
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
			coeffs := make(map[int]float64)
			if uc.Kind == Consistent {
				// count(a) - count(b) = 0.
				c := ip.inflowCoeffs(na, coeffs, 1)
				c += ip.inflowCoeffs(nb, coeffs, -1)
				ip.p.AddConstraint(ilp.Constraint{
					Coeffs: coeffs, Sense: ilp.EQ, RHS: -c,
					Label: fmt.Sprintf("user%d_consistent_%d", idx, i),
				})
				continue
			}
			// Conflicts: count(a) + count(b) <= invocations of
			// the instance (its entry block's count).
			entryNode, err := ip.instanceEntry(uc.In, ip.g.Node(na).Context)
			if err != nil {
				return fmt.Errorf("wcet: constraint %d: %w", idx, err)
			}
			c := ip.inflowCoeffs(na, coeffs, 1)
			c += ip.inflowCoeffs(nb, coeffs, 1)
			c += ip.inflowCoeffs(entryNode, coeffs, -1)
			ip.p.AddConstraint(ilp.Constraint{
				Coeffs: coeffs, Sense: ilp.LE, RHS: -c,
				Label: fmt.Sprintf("user%d_conflicts_%d", idx, i),
			})
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
