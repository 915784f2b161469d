package wcet

import (
	"cmp"
	"fmt"
	"slices"

	"verikern/internal/arch"
	"verikern/internal/cfg"
	"verikern/internal/kimage"
)

// edgeCount is one CFG edge on the worst-case path and the number of
// times the path takes it (always positive). It holds no pointers, so
// a cached bound's counts cost the garbage collector nothing to scan.
type edgeCount struct {
	edgeKey
	n int64
}

// checkTrail verifies that the solved edge counts can form one walk
// from the entry: every counted edge must leave a node that the entry
// reaches over counted edges. reconstructTrail's walk consumes exactly
// the edges leaving such nodes, so checkTrail accepts precisely the
// counts reconstructTrail turns into a path; under flow conservation
// that is the condition for an Eulerian trail from entry to exit. It
// runs in O(V+E) and builds no path, so every bound is checked whether
// or not its path is ever built. The error names the lowest unreached
// node with counted edges and their total count.
func checkTrail(g *cfg.Graph, edges []edgeCount) error {
	n := len(g.Nodes)
	first, runs, _ := countRuns(n, edges)
	reached := make([]bool, n)
	reached[g.Entry] = true
	stack := append(make([]cfg.NodeID, 0, n), g.Entry)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range runs[first[v]:first[v+1]] {
			if !reached[r.to] {
				reached[r.to] = true
				stack = append(stack, r.to)
			}
		}
	}
	for v := 0; v < n; v++ {
		if reached[v] {
			continue
		}
		var left int64
		for _, r := range runs[first[v]:first[v+1]] {
			left += r.left
		}
		if left > 0 {
			return fmt.Errorf("trail check: %d edge traversals at node %d unreachable from the entry (disconnected flow)", left, v)
		}
	}
	return nil
}

// reconstruct converts the ILP's edge counts into a concrete block
// trace from entry to exit — the paper's "converted the solution to a
// concrete execution trace" step (§6).
func reconstruct(g *cfg.Graph, edges []edgeCount) ([]*kimage.Block, error) {
	trail, err := reconstructTrail(g, edges)
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

// countRuns lays the counted edges out by source node, in the order
// edges lists them: node v's runs are runs[first[v]:first[v+1]]. end is
// a copy of first[1:], so end[v] is where v's runs stop.
func countRuns(n int, edges []edgeCount) (first []int, runs []countRun, end []int) {
	first = make([]int, n+1)
	for _, e := range edges {
		first[e.from+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	runs = make([]countRun, len(edges))
	end = make([]int, n)
	copy(end, first[:n])
	for _, e := range edges {
		runs[end[e.from]] = countRun{to: e.to, left: e.n}
		end[e.from]++
	}
	return first, runs, end
}

// reconstructTrail returns the node trail the edge counts define. The
// counts satisfy flow conservation, so they define an Eulerian trail
// of the count multigraph, found with Hierholzer's algorithm. Many
// trails are valid when a node has several successors; each node's
// outgoing edges are kept in ascending target order and the walk
// always leaves by the last one with a count left, so the same counts
// always yield the same trail, in whatever order edges lists them.
//
// An edge taken k times is one run with k left, not k adjacency
// entries, so the work space is the node and edge tables plus one
// buffer for the trail.
func reconstructTrail(g *cfg.Graph, edges []edgeCount) ([]cfg.NodeID, error) {
	n := len(g.Nodes)
	// Node v's runs are runs[first[v]:live[v]], sorted by target; a
	// run leaves the live range when its count reaches zero, and it
	// is always the last live one.
	first, runs, live := countRuns(n, edges)
	var total int64
	for _, e := range edges {
		total += e.n
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
	m := newModel(img, hw)
	st := m.state()
	r := kimage.Compile(trace)
	var path nodeClass
	var stats ClassStats
	start := uint32(0)
	for _, b := range r.Blocks {
		fetch := b.Addr
		for _, s := range r.Steps[start:b.End] {
			// Along a concrete path every access address is
			// known, so even a strided reference classifies as
			// a fixed one.
			var d kimage.DataRef
			if s.HasData {
				d = kimage.DataRef{Base: s.Data, Write: s.Write}
			}
			f, data := m.step(st, fetch, d, nil, true)
			path.add(m.be.BaseCost(s.Class), f, data, &stats)
			fetch += 4
		}
		start = b.End
	}
	p := pricesOf(hw)
	return path.cycles(p) + p.branch*uint64(len(r.Blocks))
}
