package wcet

import (
	"cmp"
	"fmt"
	"slices"

	"verikern/internal/arch"
	"verikern/internal/cache"
	"verikern/internal/cfg"
	"verikern/internal/kimage"
)

// reconstruct converts the ILP's edge counts into a concrete block
// trace from entry to exit — the paper's "converted the solution to a
// concrete execution trace" step (§6).
func reconstruct(g *cfg.Graph, edgeCount map[edgeKey]int64) ([]*kimage.Block, error) {
	trail, err := reconstructTrail(g, edgeCount)
	if err != nil {
		return nil, err
	}
	blocks := make([]*kimage.Block, 0, len(trail))
	for _, id := range trail {
		if n := g.Node(id); n.Block != nil {
			blocks = append(blocks, n.Block)
		}
	}
	return blocks, nil
}

// countRun is one edge of the count multigraph with the traversals
// still left to take.
type countRun struct {
	to   cfg.NodeID
	left int64
}

// reconstructTrail returns the node trail the edge counts define. The
// counts satisfy flow conservation, so they define an Eulerian trail
// of the count multigraph, found with Hierholzer's algorithm. Many
// trails are valid when a node has several successors; each node's
// outgoing edges are kept in ascending target order and the walk
// always leaves by the last one with a count left, so the same counts
// always yield the same trail.
//
// An edge taken k times is one run with k left, not k adjacency
// entries, so the work space is the node and edge tables plus one
// buffer for the trail.
func reconstructTrail(g *cfg.Graph, edgeCount map[edgeKey]int64) ([]cfg.NodeID, error) {
	n := len(g.Nodes)
	// Node v's runs are runs[first[v]:live[v]], sorted by target; a
	// run leaves the live range when its count reaches zero, and it
	// is always the last live one.
	first := make([]int, n+1)
	var total int64
	for e, c := range edgeCount {
		if c > 0 {
			first[e.from+1]++
			total += c
		}
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	runs := make([]countRun, first[n])
	live := make([]int, n)
	copy(live, first[:n])
	for e, c := range edgeCount {
		if c > 0 {
			runs[live[e.from]] = countRun{to: e.to, left: c}
			live[e.from]++
		}
	}
	for v := 0; v < n; v++ {
		slices.SortFunc(runs[first[v]:live[v]], func(a, b countRun) int { return cmp.Compare(a.to, b.to) })
	}

	// The stack grows up from buf[0] and the finished trail down
	// from the end. Every vertex on either was pushed once, and each
	// push but the first takes an edge, so together they never hold
	// more than total+1 vertices and cannot overlap. Vertices leave
	// the stack in reverse trail order, so writing the trail back to
	// front leaves it in order.
	buf := make([]cfg.NodeID, total+1)
	sp, tp := 0, len(buf)
	buf[sp] = g.Entry
	sp++
	for sp > 0 {
		v := buf[sp-1]
		if live[v] > first[v] {
			r := &runs[live[v]-1]
			r.left--
			if r.left == 0 {
				live[v]--
			}
			buf[sp] = r.to
			sp++
		} else {
			sp--
			tp--
			buf[tp] = v
		}
	}
	// Verify every edge was consumed (the counts formed one trail).
	for v := 0; v < n; v++ {
		var left int64
		for _, r := range runs[first[v]:live[v]] {
			left += r.left
		}
		if left > 0 {
			return nil, fmt.Errorf("path reconstruction: %d unused edges at node %d (disconnected flow)", left, v)
		}
	}
	return buf[tp:], nil
}

// TraceCycles computes the analyser's cost for one specific concrete
// path — the "extra constraints to force analysis of the desired path"
// step used to quantify hardware-model conservatism (§6.2, Fig. 8). It
// walks the compiled trace the simulator replays with the same
// must-analysis and cost model used for the full bound, so the
// difference from the ILP result is purely the path, and the difference
// from the simulator is purely the hardware model's pessimism.
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
	r := kimage.Compile(trace)
	cycles := be.WorstBranchCost(hw.BranchPredictor) * uint64(len(r.Blocks))
	var stats ClassStats
	start := uint32(0)
	for _, b := range r.Blocks {
		fetch := b.Addr
		for _, s := range r.Steps[start:b.End] {
			cycles += be.BaseCost(s.Class)
			if !hw.InITCM(fetch) {
				if !st.i.Hit(fetch) {
					cycles += fetchMiss
				}
				st.i.Update(fetch)
			}
			fetch += 4
			if !s.HasData {
				continue
			}
			// Along a concrete path every access address is
			// known, so even a strided reference classifies as
			// a fixed one.
			if hw.InDTCM(s.Data) {
				stats.DataHit++
				continue
			}
			applyData(be, st, kimage.DataRef{Base: s.Data, Write: s.Write}, &cycles, &stats, miss)
		}
		start = b.End
	}
	return cycles
}
