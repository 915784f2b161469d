// Package cfg builds the whole-program control-flow graphs the WCET
// analysis runs on. Following the paper's method (§5.2), every function
// call is virtually inlined: each call site receives its own copy of
// the callee, so the cache analysis can distinguish calling contexts.
// The package also computes dominators and natural loops, which the
// IPET encoding needs to attach loop-bound constraints.
package cfg

import (
	"fmt"
	"sort"

	"verikern/internal/kimage"
)

// NodeID identifies a node in an inlined graph.
type NodeID int

// None is the invalid node id.
const None NodeID = -1

// Node is one inlined copy of a basic block. The virtual exit node has
// a nil Block.
type Node struct {
	ID NodeID
	// Block is the underlying image block (shared between inlined
	// copies; timing properties are identical, cache contexts are
	// not).
	Block *kimage.Block
	// Func is the name of the function the block belongs to.
	Func string
	// Context is the call-site path that reached this inlined copy,
	// e.g. "handleSyscall/decode0>lookupCap". The entry function's
	// context is "".
	Context string
	Succs   []NodeID
	Preds   []NodeID
}

// Key returns a human-readable identity, unique within a graph.
func (n *Node) Key() string {
	if n.Block == nil {
		return "<exit>"
	}
	if n.Context == "" {
		return n.Func + "." + n.Block.Name
	}
	return n.Context + ">" + n.Func + "." + n.Block.Name
}

// Loop is a natural loop of the inlined graph.
type Loop struct {
	// Header is the loop-header node.
	Header NodeID
	// Body is the set of nodes in the loop, including the header.
	Body map[NodeID]bool
	// BackEdges are the edges (src -> Header) that close the loop.
	BackEdges []NodeID
	// Bound is the maximum number of header executions per entry of
	// the loop, taken from the image annotations (or loop-bound
	// inference).
	Bound int
	// Parent is the index into Graph.Loops of the innermost
	// enclosing loop, or -1.
	Parent int
}

// Graph is a whole-program inlined CFG for one kernel entry point.
type Graph struct {
	Entry NodeID
	// Exit is a single virtual exit node; every top-level return
	// block has an edge to it.
	Exit  NodeID
	Nodes []*Node
	// Loops are the natural loops, innermost-last order not
	// guaranteed; use Parent for nesting.
	Loops []*Loop

	// byOrigin maps funcName -> blockName -> all inlined copies.
	byOrigin map[string]map[string][]NodeID
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return g.Nodes[id] }

// NodesOf returns every inlined copy of the named block of the named
// function, in creation order. User constraints of the form
// "a conflicts with b in f" (§5.2) resolve through this.
func (g *Graph) NodesOf(fn, block string) []NodeID {
	m := g.byOrigin[fn]
	if m == nil {
		return nil
	}
	return m[block]
}

type builder struct {
	img   *kimage.Image
	g     *Graph
	stack []string // call stack for recursion detection
}

// Inline builds the whole-program graph for the given entry function,
// virtually inlining every call. It fails on recursion (the kernel has
// none; the analysis cannot bound it) and on calls to undefined
// functions.
func Inline(img *kimage.Image, entry string) (*Graph, error) {
	f := img.Funcs[entry]
	if f == nil {
		return nil, fmt.Errorf("cfg: undefined entry function %q", entry)
	}
	b := &builder{
		img: img,
		g:   &Graph{byOrigin: make(map[string]map[string][]NodeID)},
	}
	// Virtual exit first so it exists for return edges.
	exit := b.newNode(nil, "", "")
	b.g.Exit = exit.ID

	entryID, returns, err := b.inline(f, "")
	if err != nil {
		return nil, err
	}
	b.g.Entry = entryID
	for _, r := range returns {
		b.edge(r, exit.ID)
	}
	return b.g, nil
}

func (b *builder) newNode(blk *kimage.Block, fn, ctx string) *Node {
	n := &Node{ID: NodeID(len(b.g.Nodes)), Block: blk, Func: fn, Context: ctx}
	b.g.Nodes = append(b.g.Nodes, n)
	if blk != nil {
		m := b.g.byOrigin[fn]
		if m == nil {
			m = make(map[string][]NodeID)
			b.g.byOrigin[fn] = m
		}
		m[blk.Name] = append(m[blk.Name], n.ID)
	}
	return n
}

func (b *builder) edge(from, to NodeID) {
	b.g.Nodes[from].Succs = append(b.g.Nodes[from].Succs, to)
	b.g.Nodes[to].Preds = append(b.g.Nodes[to].Preds, from)
}

// inline expands function f under calling context ctx. It returns the
// entry node and the list of return nodes (blocks with no successors
// and no call).
func (b *builder) inline(f *kimage.Func, ctx string) (NodeID, []NodeID, error) {
	for _, s := range b.stack {
		if s == f.Name {
			return None, nil, fmt.Errorf("cfg: recursion through %q (stack %v)", f.Name, b.stack)
		}
	}
	b.stack = append(b.stack, f.Name)
	defer func() { b.stack = b.stack[:len(b.stack)-1] }()

	ids := make(map[string]NodeID, len(f.Blocks))
	for _, blk := range f.Blocks {
		ids[blk.Name] = b.newNode(blk, f.Name, ctx).ID
	}
	var returns []NodeID
	for _, blk := range f.Blocks {
		from := ids[blk.Name]
		if blk.Call != "" {
			callee := b.img.Funcs[blk.Call]
			if callee == nil {
				return None, nil, fmt.Errorf("cfg: %s calls undefined %q", f.Name, blk.Call)
			}
			calleeCtx := b.g.Nodes[from].Key()
			centry, crets, err := b.inline(callee, calleeCtx)
			if err != nil {
				return None, nil, err
			}
			b.edge(from, centry)
			if len(blk.Succs) == 1 {
				cont := ids[blk.Succs[0]]
				for _, r := range crets {
					b.edge(r, cont)
				}
			} else {
				// Tail call: the callee's returns are ours.
				returns = append(returns, crets...)
			}
			continue
		}
		if len(blk.Succs) == 0 {
			returns = append(returns, from)
			continue
		}
		for _, s := range blk.Succs {
			b.edge(from, ids[s])
		}
	}
	return ids[f.Blocks[0].Name], returns, nil
}

// RPO returns the graph's nodes in reverse postorder from the entry.
// Unreachable nodes are omitted.
func (g *Graph) RPO() []NodeID {
	seen := make([]bool, len(g.Nodes))
	var post []NodeID
	// Iterative DFS to survive deep graphs.
	type frame struct {
		id   NodeID
		next int
	}
	stack := []frame{{id: g.Entry}}
	seen[g.Entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		n := g.Nodes[f.id]
		if f.next < len(n.Succs) {
			s := n.Succs[f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{id: s})
			}
			continue
		}
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes the immediate dominator of every reachable node
// using the Cooper–Harvey–Kennedy iterative algorithm. idom[entry] =
// entry; unreachable nodes get None.
func (g *Graph) Dominators() []NodeID {
	rpo := g.RPO()
	order := make([]int, len(g.Nodes)) // rpo index per node
	for i := range order {
		order[i] = -1
	}
	for i, id := range rpo {
		order[id] = i
	}
	idom := make([]NodeID, len(g.Nodes))
	for i := range idom {
		idom[i] = None
	}
	idom[g.Entry] = g.Entry

	intersect := func(a, b NodeID) NodeID {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, id := range rpo {
			if id == g.Entry {
				continue
			}
			var newIdom NodeID = None
			for _, p := range g.Nodes[id].Preds {
				if idom[p] == None {
					continue
				}
				if newIdom == None {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != None && idom[id] != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// FindLoops detects natural loops, assigns bounds from the image's
// per-function annotations, and computes nesting. It returns an error
// for irreducible flow (a back edge to a non-dominating header) or a
// loop with no bound annotation — both make IPET unsound, matching the
// paper's requirement that every loop be bounded (§5.3).
func (g *Graph) FindLoops(img *kimage.Image) error {
	idom := g.Dominators()
	dominates := func(a, b NodeID) bool {
		// Walk b's dominator chain.
		for {
			if b == a {
				return true
			}
			if b == g.Entry || idom[b] == None {
				return false
			}
			b = idom[b]
		}
	}

	loops := make(map[NodeID]*Loop) // by header
	var headers []NodeID
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if idom[n.ID] == None {
				continue // unreachable
			}
			if dominates(s, n.ID) {
				// Back edge n -> s.
				l := loops[s]
				if l == nil {
					l = &Loop{Header: s, Body: map[NodeID]bool{s: true}, Parent: -1}
					loops[s] = l
					headers = append(headers, s)
				}
				l.BackEdges = append(l.BackEdges, n.ID)
				// Collect body: reverse reachability from
				// the back-edge source, stopping at the
				// header.
				work := []NodeID{n.ID}
				for len(work) > 0 {
					v := work[len(work)-1]
					work = work[:len(work)-1]
					if l.Body[v] {
						continue
					}
					l.Body[v] = true
					for _, p := range g.Nodes[v].Preds {
						work = append(work, p)
					}
				}
			}
		}
	}

	// Detect irreducibility: any edge into a loop body (other than
	// to its header) from outside the body.
	for _, h := range headers {
		l := loops[h]
		for id := range l.Body {
			if id == h {
				continue
			}
			for _, p := range g.Nodes[id].Preds {
				if !l.Body[p] {
					return fmt.Errorf("cfg: irreducible flow: edge %s -> %s enters loop %s past its header",
						g.Nodes[p].Key(), g.Nodes[id].Key(), g.Nodes[h].Key())
				}
			}
		}
	}

	// Assign bounds from the originating function's annotations.
	for _, h := range headers {
		l := loops[h]
		n := g.Nodes[h]
		f := img.Funcs[n.Func]
		bound, ok := 0, false
		if f != nil {
			bound, ok = f.LoopBounds[n.Block.Name], f.LoopBounds[n.Block.Name] > 0
		}
		if !ok {
			return fmt.Errorf("cfg: loop at %s has no bound annotation", n.Key())
		}
		l.Bound = bound
	}

	// Sort headers for determinism and compute nesting: parent is
	// the smallest strictly-containing loop.
	sort.Slice(headers, func(i, j int) bool { return headers[i] < headers[j] })
	g.Loops = g.Loops[:0]
	for _, h := range headers {
		g.Loops = append(g.Loops, loops[h])
	}
	for i, l := range g.Loops {
		best, bestSize := -1, 0
		for j, outer := range g.Loops {
			if i == j || !outer.Body[l.Header] || outer.Header == l.Header {
				continue
			}
			if best == -1 || len(outer.Body) < bestSize {
				best, bestSize = j, len(outer.Body)
			}
		}
		l.Parent = best
	}
	return nil
}
