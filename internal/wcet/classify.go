package wcet

import (
	"verikern/internal/cfg"
)

// classify runs the must-analysis to a fixpoint over the inlined
// graph, applies the first-miss persistence refinement, and derives a
// worst-case cycle cost for every node plus a one-off cost per loop
// (charged on its entry edges by the IPET encoding). The fixpoint and
// the cost walk apply the same access step; only the cost walk asks it
// to classify.
func (a *Analyzer) classify(g *cfg.Graph) ([]uint64, []uint64, ClassStats) {
	m := newModel(a.Img, a.HW)

	// in-states per node; entry starts with no guarantees (the paper
	// assumes nothing about the cache at kernel entry).
	in := make([]absState, len(g.Nodes))
	in[g.Entry] = m.state()

	// One scratch state per call carries each node's out-state and,
	// below, its cost walk; only a successor's first in-state is a
	// fresh copy.
	scratch := m.state()

	rpo := g.RPO()
	// Fixpoint iteration.
	var sweeps uint64
	for changed := true; changed; {
		changed = false
		sweeps++
		for _, id := range rpo {
			if in[id].i == nil {
				continue // not yet reached
			}
			out := scratch
			out.copyFrom(in[id])
			if b := g.Node(id).Block; b != nil {
				for i := range b.Instrs {
					m.step(out, b.InstrAddr(i), b.Instrs[i].Data, nil, false)
				}
			}
			for _, s := range g.Node(id).Succs {
				if in[s].i == nil {
					in[s] = out.clone()
					changed = true
				} else if in[s].join(out) {
					changed = true
				}
			}
		}
	}

	a.Metrics.Add("classify.fixpoint_sweeps", sweeps)

	// Persistence (first-miss) refinement per loop, and per loop the
	// set of fetch lines whose single miss is charged at loop entry.
	pers := analyzePersistence(g, m)
	charged := make([]map[uint32]bool, len(g.Loops))
	for i := range charged {
		charged[i] = map[uint32]bool{}
	}

	// Derive node costs from the final in-states.
	costs := make([]uint64, len(g.Nodes))
	var stats ClassStats
	branch := m.be.WorstBranchCost(a.HW.BranchPredictor)
	for _, n := range g.Nodes {
		if n.Block == nil {
			continue // virtual exit
		}
		st := in[n.ID]
		if st.i == nil {
			continue // unreachable
		}
		s := scratch
		s.copyFrom(st)
		li := pers.innermost[n.ID]
		var firstMiss map[uint32]bool
		if li >= 0 {
			firstMiss = pers.lines[li]
		}
		var c uint64
		for i := range n.Block.Instrs {
			ins := &n.Block.Instrs[i]
			fa := n.Block.InstrAddr(i)
			fetch, data := m.step(s, fa, ins.Data, firstMiss, true)
			c += m.be.BaseCost(ins.Class) + m.cost(fetch, data, &stats)
			if fetch == accFirstMiss {
				charged[li][lineOf(m.be, fa)] = true
			}
		}
		costs[n.ID] = c + branch
	}

	// One-off loop-entry costs.
	loopEntry := make([]uint64, len(g.Loops))
	for li := range g.Loops {
		loopEntry[li] = uint64(len(charged[li])) * m.fetchMiss
	}
	return costs, loopEntry, stats
}
