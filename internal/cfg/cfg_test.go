package cfg

import (
	"math/rand"
	"testing"

	"verikern/internal/kimage"
)

// diamond builds: entry -> {then,else} -> join -> ret
func diamondImage(t *testing.T) *kimage.Image {
	t.Helper()
	img := kimage.New()
	b := img.NewFunc("main")
	b.ALU(2)
	b.If(func(b *kimage.FuncBuilder) { b.ALU(1) }, func(b *kimage.FuncBuilder) { b.ALU(3) })
	b.ALU(1)
	b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	return img
}

func TestInlineSimple(t *testing.T) {
	img := diamondImage(t)
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	// 4 blocks + virtual exit.
	if len(g.Nodes) != 5 {
		t.Fatalf("inlined graph has %d nodes, want 5", len(g.Nodes))
	}
	entry := g.Node(g.Entry)
	if len(entry.Succs) != 2 {
		t.Errorf("entry has %d successors, want 2", len(entry.Succs))
	}
	exit := g.Node(g.Exit)
	if len(exit.Preds) != 1 {
		t.Errorf("exit has %d preds, want 1", len(exit.Preds))
	}
	if exit.Block != nil {
		t.Error("exit node has a block")
	}
}

func TestInlineUndefinedEntry(t *testing.T) {
	img := diamondImage(t)
	if _, err := Inline(img, "nope"); err == nil {
		t.Error("Inline accepted undefined entry")
	}
}

func TestInlineDuplicatesCallees(t *testing.T) {
	img := kimage.New()
	h := img.NewFunc("helper")
	h.ALU(5)
	h.Ret()
	m := img.NewFunc("main")
	m.ALU(1).Call("helper").ALU(1).Call("helper").ALU(1)
	m.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	copies := g.NodesOf("helper", img.Funcs["helper"].Entry().Name)
	if len(copies) != 2 {
		t.Fatalf("helper inlined %d times, want 2 (one per call site)", len(copies))
	}
	if g.Node(copies[0]).Context == g.Node(copies[1]).Context {
		t.Error("two inlined copies share a context")
	}
	// Both copies share the same underlying block (same addresses).
	if g.Node(copies[0]).Block != g.Node(copies[1]).Block {
		t.Error("inlined copies do not share the image block")
	}
}

func TestInlineRejectsRecursion(t *testing.T) {
	img := kimage.New()
	a := img.NewFunc("a")
	a.ALU(1).Call("b")
	a.Ret()
	b := img.NewFunc("b")
	b.ALU(1).Call("a")
	b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	if _, err := Inline(img, "a"); err == nil {
		t.Error("Inline accepted mutual recursion")
	}
}

func TestRPOStartsAtEntryEndsAtExit(t *testing.T) {
	img := diamondImage(t)
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	rpo := g.RPO()
	if rpo[0] != g.Entry {
		t.Error("RPO does not start at entry")
	}
	if rpo[len(rpo)-1] != g.Exit {
		t.Error("RPO does not end at exit")
	}
	// RPO visits everything reachable exactly once.
	seen := make(map[NodeID]bool)
	for _, id := range rpo {
		if seen[id] {
			t.Fatalf("node %d appears twice in RPO", id)
		}
		seen[id] = true
	}
	if len(rpo) != len(g.Nodes) {
		t.Errorf("RPO has %d nodes, graph has %d", len(rpo), len(g.Nodes))
	}
}

func TestDominatorsDiamond(t *testing.T) {
	img := diamondImage(t)
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	idom := g.Dominators()
	if idom[g.Entry] != g.Entry {
		t.Error("entry not its own idom")
	}
	// Both arms are dominated by the entry; the join is dominated by
	// the entry (not by either arm).
	entry := g.Node(g.Entry)
	arm0 := entry.Succs[0]
	join := g.Node(arm0).Succs[0]
	if idom[join] != g.Entry {
		t.Errorf("join idom = %d, want entry %d", idom[join], g.Entry)
	}
	for _, arm := range entry.Succs {
		if idom[arm] != g.Entry {
			t.Errorf("arm idom = %d, want entry", idom[arm])
		}
	}
}

func TestFindLoopsSingle(t *testing.T) {
	img := kimage.New()
	b := img.NewFunc("main")
	b.ALU(1)
	header := b.Loop(10, func(b *kimage.FuncBuilder) { b.ALU(2) })
	b.ALU(1)
	b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FindLoops(img); err != nil {
		t.Fatal(err)
	}
	if len(g.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(g.Loops))
	}
	l := g.Loops[0]
	if l.Bound != 10 {
		t.Errorf("loop bound = %d, want 10", l.Bound)
	}
	if g.Node(l.Header).Block.Name != header {
		t.Errorf("loop header is %q, want %q", g.Node(l.Header).Block.Name, header)
	}
	if len(l.BackEdges) != 1 {
		t.Errorf("loop has %d back edges, want 1", len(l.BackEdges))
	}
	if l.Parent != -1 {
		t.Error("top-level loop has a parent")
	}
	// Body = header + body block.
	if len(l.Body) != 2 {
		t.Errorf("loop body has %d nodes, want 2", len(l.Body))
	}
}

func TestFindLoopsNested(t *testing.T) {
	img := kimage.New()
	b := img.NewFunc("main")
	b.Loop(8, func(b *kimage.FuncBuilder) {
		b.ALU(1)
		b.Loop(32, func(b *kimage.FuncBuilder) { b.ALU(1) })
	})
	b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FindLoops(img); err != nil {
		t.Fatal(err)
	}
	if len(g.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(g.Loops))
	}
	var inner, outer *Loop
	for _, l := range g.Loops {
		if l.Bound == 32 {
			inner = l
		} else if l.Bound == 8 {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("did not find both loops by bound")
	}
	if inner.Parent == -1 || g.Loops[inner.Parent] != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if outer.Parent != -1 {
		t.Error("outer loop has a parent")
	}
	if !outer.Body[inner.Header] {
		t.Error("outer loop body does not contain inner header")
	}
}

func TestFindLoopsPerContextCopies(t *testing.T) {
	// A called function with a loop, called twice: each inlined copy
	// is a distinct loop.
	img := kimage.New()
	h := img.NewFunc("walker")
	h.Loop(16, func(b *kimage.FuncBuilder) { b.ALU(1) })
	h.Ret()
	m := img.NewFunc("main")
	m.ALU(1).Call("walker").ALU(1).Call("walker")
	m.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FindLoops(img); err != nil {
		t.Fatal(err)
	}
	if len(g.Loops) != 2 {
		t.Fatalf("found %d loops, want 2 (one per inlined copy)", len(g.Loops))
	}
	for _, l := range g.Loops {
		if l.Bound != 16 {
			t.Errorf("inlined loop bound = %d, want 16", l.Bound)
		}
	}
}

func TestFindLoopsMissingBound(t *testing.T) {
	img := kimage.New()
	f := &kimage.Func{Name: "main", Blocks: []*kimage.Block{
		{Name: "a", Succs: []string{"b"}},
		{Name: "b", Succs: []string{"a", "c"}},
		{Name: "c"},
	}}
	img.AddFunc(f)
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FindLoops(img); err == nil {
		t.Error("FindLoops accepted an unbounded loop")
	}
}

func TestFuncsListsInlined(t *testing.T) {
	img := kimage.New()
	h := img.NewFunc("helper")
	h.ALU(1)
	h.Ret()
	m := img.NewFunc("main")
	m.Call("helper")
	m.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	g, err := Inline(img, "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.byOrigin) != 2 || len(g.byOrigin["helper"]) == 0 || len(g.byOrigin["main"]) == 0 {
		t.Errorf("inlined functions %v, want helper and main", g.byOrigin)
	}
}

// bruteForceDominates computes dominance by path enumeration semantics:
// a dominates b iff removing a disconnects b from the entry.
func bruteForceDominates(g *Graph, a, b NodeID) bool {
	if a == b {
		return true
	}
	// BFS from entry avoiding a.
	if g.Entry == a {
		return true
	}
	seen := map[NodeID]bool{g.Entry: true}
	work := []NodeID{g.Entry}
	for len(work) > 0 {
		v := work[0]
		work = work[1:]
		if v == b {
			return false
		}
		for _, s := range g.Node(v).Succs {
			if s != a && !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return true
}

// TestPropertyDominatorsMatchBruteForce validates the iterative
// dominator algorithm against path-based dominance on randomly built
// structured programs.
func TestPropertyDominatorsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		img := kimage.New()
		b := img.NewFunc("main")
		var emit func(depth int)
		emit = func(depth int) {
			for i := 0; i < 1+rng.Intn(3); i++ {
				switch rng.Intn(3) {
				case 0:
					b.ALU(1 + rng.Intn(4))
				case 1:
					if depth > 0 {
						b.If(func(*kimage.FuncBuilder) { emit(depth - 1) },
							func(*kimage.FuncBuilder) { emit(depth - 1) })
					}
				case 2:
					if depth > 0 {
						b.Loop(2+rng.Intn(4), func(*kimage.FuncBuilder) { emit(depth - 1) })
					}
				}
			}
		}
		emit(3)
		b.Ret()
		if err := img.Link(); err != nil {
			t.Fatal(err)
		}
		g, err := Inline(img, "main")
		if err != nil {
			t.Fatal(err)
		}
		idom := g.Dominators()
		// The idom must dominate its node, and no node strictly
		// between them on the dominator tree may be skipped —
		// verify idom is the *closest* strict dominator.
		for _, n := range g.Nodes {
			if n.ID == g.Entry || idom[n.ID] == None {
				continue
			}
			if !bruteForceDominates(g, idom[n.ID], n.ID) {
				t.Fatalf("trial %d: idom(%d)=%d does not dominate", trial, n.ID, idom[n.ID])
			}
			// Every strict dominator of n must dominate idom(n).
			for _, m := range g.Nodes {
				if m.ID == n.ID || m.ID == idom[n.ID] {
					continue
				}
				if bruteForceDominates(g, m.ID, n.ID) && !bruteForceDominates(g, m.ID, idom[n.ID]) {
					t.Fatalf("trial %d: %d dominates %d but not its idom %d",
						trial, m.ID, n.ID, idom[n.ID])
				}
			}
		}
	}
}
