package wcet

import (
	"context"
	"strconv"

	"verikern/internal/arch"
	"verikern/internal/cfg"
)

// Cache classification runs in two phases, as the paper's Chronos keeps
// cache analysis apart from pipeline and memory timing (§5.1). Phase 1
// (classify) runs the must-analysis and the persistence refinement over
// a graph and counts each node's classified accesses: a class vector
// that reads the graph, the pin set and the TCM windows and nothing of
// the hardware's latencies. Phase 2 (costs) prices a vector on one
// hardware configuration: a linear sum with no abstract state. The
// cache's class tier keeps one vector per class key, so the hardware
// configurations a sweep varies over one graph share one fixpoint.

// classes is one graph's class vector. It holds no pointers but its
// slices' headers, so a cached vector costs the garbage collector
// nothing to scan. Cached vectors are shared and must not be modified.
type classes struct {
	// nodes holds each node's classified accesses, by node ID.
	nodes []nodeClass
	// loopLines counts, per loop, the distinct fetch lines whose one
	// miss is charged on the loop's entry edges.
	loopLines []uint32
	stats     ClassStats
}

// nodeClass counts the classified accesses of one node, or of one
// concrete path (TraceCycles).
type nodeClass struct {
	// base is the sum of the instructions' base costs.
	base uint64
	// fetchMisses counts fetches with no guarantee; dataMisses counts
	// data accesses with none, fixed (miss) or striding (unknown).
	fetchMisses, dataMisses uint32
	// reached is false for unreachable nodes and the virtual exit,
	// which cost nothing.
	reached bool
}

// add counts one instruction of base cost base, with its accesses
// classified fetch and data, in c and in stats. A first-miss fetch adds
// no miss to c: its one miss is charged on its loop's entry edges.
func (c *nodeClass) add(base uint64, fetch, data accessClass, stats *ClassStats) {
	c.base += base
	switch fetch {
	case accTCM, accHit:
		stats.FetchHit++
	case accFirstMiss:
		stats.FetchFirstMiss++
	case accMiss:
		stats.FetchMiss++
		c.fetchMisses++
	}
	switch data {
	case accTCM, accHit:
		stats.DataHit++
	case accMiss:
		stats.DataMiss++
		c.dataMisses++
	case accUnknown:
		stats.DataUnknown++
		c.dataMisses++
	}
}

// prices are one hardware configuration's costs of the classes a
// vector counts: an unclassified data access, an unclassified fetch,
// and the worst-case branch every reached node ends in.
type prices struct{ miss, fetchMiss, branch uint64 }

func pricesOf(hw arch.Config) prices {
	return prices{
		miss:      missCost(hw),
		fetchMiss: fetchMissCost(hw),
		branch:    hw.Backend().WorstBranchCost(hw.BranchPredictor),
	}
}

// cycles prices c's accesses, without a branch.
func (c nodeClass) cycles(p prices) uint64 {
	return c.base + uint64(c.fetchMisses)*p.fetchMiss + uint64(c.dataMisses)*p.miss
}

// costs is phase 2: the worst-case cycle cost of every node, and the
// one-off cost of every loop (charged on its entry edges by the IPET
// encoding), on hardware hw.
func (v *classes) costs(hw arch.Config) (nodeCost, loopEntry []uint64) {
	p := pricesOf(hw)
	nodeCost = make([]uint64, len(v.nodes))
	for id, n := range v.nodes {
		if n.reached {
			nodeCost[id] = n.cycles(p) + p.branch
		}
	}
	loopEntry = make([]uint64, len(v.loopLines))
	for li, n := range v.loopLines {
		loopEntry[li] = uint64(n) * p.fetchMiss
	}
	return nodeCost, loopEntry
}

// classVector returns the class vector of the entry's graph g, from
// the cache's class tier when one is set.
func (a *Analyzer) classVector(ctx context.Context, g *cfg.Graph, entry string) (*classes, error) {
	if a.Cache == nil {
		return a.classify(g), nil
	}
	v, _, err := get(ctx, a.Cache, a.Metrics, a.Cache.classes, a.classKey(entry),
		func() (*classes, error) { return a.classify(g), nil })
	return v, err
}

// classKey names the class tier's entry for one entry point: the graph
// key (whose image fingerprint carries the backend and the pin sets)
// plus exactly the hardware fields newModel, step and
// analyzePersistence read: whether any L1 way is pinned, and the TCM
// windows.
func (a *Analyzer) classKey(entry string) string {
	b := make([]byte, 0, 128)
	b = append(b, a.graphKey(entry)...)
	b = append(b, "|pin="...)
	b = strconv.AppendBool(b, a.HW.PinnedL1Ways > 0)
	b = append(b, "|tcm="...)
	b = strconv.AppendBool(b, a.HW.TCMEnabled)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(a.HW.ITCMBase), 16)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(a.HW.DTCMBase), 16)
	return string(b)
}

// classify is phase 1: it runs the must-analysis to a fixpoint over
// the inlined graph, applies the first-miss persistence refinement,
// and counts every node's classified accesses in one classifying walk.
// The fixpoint and the walk apply the same access step; only the walk
// asks it to classify. The in-states are dropped on return.
func (a *Analyzer) classify(g *cfg.Graph) *classes {
	m := newModel(a.Img, a.HW)

	// in-states per node; entry starts with no guarantees (the paper
	// assumes nothing about the cache at kernel entry).
	in := make([]absState, len(g.Nodes))
	in[g.Entry] = m.state()

	// One scratch state per call carries each node's out-state and,
	// below, its classifying walk; only a successor's first in-state
	// is a fresh copy.
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

	// Classify every reached node's accesses from its final in-state.
	v := &classes{nodes: make([]nodeClass, len(g.Nodes)), loopLines: make([]uint32, len(g.Loops))}
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
		c := &v.nodes[n.ID]
		c.reached = true
		for i := range n.Block.Instrs {
			ins := &n.Block.Instrs[i]
			fa := n.Block.InstrAddr(i)
			fetch, data := m.step(s, fa, ins.Data, firstMiss, true)
			c.add(m.be.BaseCost(ins.Class), fetch, data, &v.stats)
			if fetch == accFirstMiss {
				charged[li][lineOf(m.be, fa)] = true
			}
		}
	}
	for li := range charged {
		v.loopLines[li] = uint32(len(charged[li]))
	}
	return v
}
