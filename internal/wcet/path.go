package wcet

import (
	"fmt"

	"verikern/internal/arch"
	"verikern/internal/cache"
	"verikern/internal/cfg"
	"verikern/internal/kimage"
)

// reconstruct converts the ILP's edge counts into a concrete block
// trace from entry to exit — the paper's "converted the solution to a
// concrete execution trace" step (§6). The counts satisfy flow
// conservation, so they define an Eulerian trail of the count
// multigraph, found with Hierholzer's algorithm. Many trails are valid
// when a node has several successors; the adjacency lists are built
// from the edges in (from, to) order so the same counts always yield
// the same trail.
func reconstruct(g *cfg.Graph, edgeCount map[edgeKey]int64) ([]*kimage.Block, error) {
	// Hierholzer's algorithm over edgeCount, from entry.
	adj := make(map[cfg.NodeID][]cfg.NodeID)
	for _, e := range sortedEdgeFlows(edgeCount) {
		for i := int64(0); i < e.Count; i++ {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	var trail []cfg.NodeID
	stack := []cfg.NodeID{g.Entry}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if outs := adj[v]; len(outs) > 0 {
			next := outs[len(outs)-1]
			adj[v] = outs[:len(outs)-1]
			stack = append(stack, next)
		} else {
			trail = append(trail, v)
			stack = stack[:len(stack)-1]
		}
	}
	// The trail is reversed.
	for i, j := 0, len(trail)-1; i < j; i, j = i+1, j-1 {
		trail[i], trail[j] = trail[j], trail[i]
	}
	// Verify every edge was consumed (the counts formed one trail).
	for v, outs := range adj {
		if len(outs) > 0 {
			return nil, fmt.Errorf("path reconstruction: %d unused edges at node %d (disconnected flow)", len(outs), v)
		}
	}

	blocks := make([]*kimage.Block, 0, len(trail))
	for _, id := range trail {
		if n := g.Node(id); n.Block != nil {
			blocks = append(blocks, n.Block)
		}
	}
	return blocks, nil
}

// TraceCycles computes the analyser's cost for one specific concrete
// path — the "extra constraints to force analysis of the desired path"
// step used to quantify hardware-model conservatism (§6.2, Fig. 8). It
// walks the trace with the same must-analysis and cost model used for
// the full bound, so the difference from the ILP result is purely the
// path, and the difference from the simulator is purely the hardware
// model's pessimism.
func TraceCycles(img *kimage.Image, hw arch.Config, trace []*kimage.Block) uint64 {
	be := hw.Backend()
	l1i := be.L1I
	l1d := be.L1D
	i := cache.NewMust(l1i.Sets(), l1i.LineBytes)
	d := cache.NewMust(l1d.Sets(), l1d.LineBytes)
	if hw.PinnedL1Ways > 0 {
		i.SetPinned(img.PinnedCodeSet())
		d.SetPinned(img.PinnedDataSet())
	}
	st := absState{i: i, d: d}

	miss := missCost(hw)
	fetchMiss := fetchMissCost(hw)
	branch := be.WorstBranchCost(hw.BranchPredictor)
	var cycles uint64
	var stats ClassStats
	// Execution indices for striding refs, as in the simulator.
	execIndex := make(map[*kimage.Block][]uint64)
	for _, b := range trace {
		idx := execIndex[b]
		if idx == nil {
			idx = make([]uint64, len(b.Instrs))
			execIndex[b] = idx
		}
		for k := range b.Instrs {
			ins := &b.Instrs[k]
			cycles += be.BaseCost(ins.Class)
			fa := b.InstrAddr(k)
			if !hw.InITCM(fa) {
				if !st.i.Hit(fa) {
					cycles += fetchMiss
				}
				st.i.Update(fa)
			}
			if ins.Data.Base != 0 {
				if ins.Data.Fixed() {
					if hw.InDTCM(ins.Data.Base) {
						stats.DataHit++
					} else {
						applyData(be, st, ins.Data, &cycles, &stats, miss)
					}
				} else {
					// Along a concrete path the access
					// address is known; classify it.
					a := ins.Data.Addr(idx[k])
					idx[k]++
					if hw.InDTCM(a) {
						stats.DataHit++
						continue
					}
					ref := kimage.DataRef{Base: a, Write: ins.Data.Write}
					applyData(be, st, ref, &cycles, &stats, miss)
				}
			}
		}
		cycles += branch
	}
	return cycles
}
