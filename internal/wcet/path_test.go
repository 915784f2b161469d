package wcet

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"verikern/internal/cfg"
	"verikern/internal/kimage"
)

// TestReconstructDeterministic: the reconstructed trace must be a pure
// function of the edge counts. The count graph below leaves a hub with
// several successors, so Hierholzer's algorithm has many valid Eulerian
// trails to choose from; the one it returns must not depend on map
// iteration order, or tied worst-case paths replay differently from
// one process to the next.
func TestReconstructDeterministic(t *testing.T) {
	names := []string{"entry", "hub", "a", "b", "c", "d", "tail"}
	g := &cfg.Graph{Entry: 0, Exit: cfg.NodeID(len(names))}
	for i, n := range names {
		g.Nodes = append(g.Nodes, &cfg.Node{ID: cfg.NodeID(i), Block: &kimage.Block{Name: n}})
	}
	g.Nodes = append(g.Nodes, &cfg.Node{ID: g.Exit})
	const (
		entry cfg.NodeID = iota
		hub
		a
		b
		c
		d
		tail
	)
	counts := map[edgeKey]int64{
		{entry, hub}:   1,
		{hub, a}:       2,
		{a, hub}:       2,
		{hub, b}:       3,
		{b, hub}:       3,
		{hub, c}:       1,
		{c, hub}:       1,
		{hub, d}:       2,
		{d, hub}:       2,
		{hub, tail}:    1,
		{tail, g.Exit}: 1,
	}
	render := func() string {
		trace, err := reconstruct(g, counts)
		if err != nil {
			t.Fatal(err)
		}
		var s []string
		for _, blk := range trace {
			s = append(s, blk.Name)
		}
		return strings.Join(s, " ")
	}
	want := render()
	if n := len(strings.Fields(want)); n != 19 {
		t.Fatalf("trace has %d blocks, want 19: %s", n, want)
	}
	for i := 0; i < 50; i++ {
		if got := render(); got != want {
			t.Fatalf("reconstruction %d differs:\n got %s\nwant %s", i, got, want)
		}
	}
}

// referenceTrail is the original map-of-slices reconstruction: one
// adjacency entry per unit of edge count, built in (from, to) order
// and popped from the back. reconstructTrail must reproduce its trails
// exactly.
func referenceTrail(entry cfg.NodeID, edgeCount map[edgeKey]int64) []cfg.NodeID {
	edges := make([]edgeKey, 0, len(edgeCount))
	for k := range edgeCount {
		edges = append(edges, k)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	adj := make(map[cfg.NodeID][]cfg.NodeID)
	for _, e := range edges {
		for i := int64(0); i < edgeCount[e]; i++ {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	var trail []cfg.NodeID
	stack := []cfg.NodeID{entry}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if outs := adj[v]; len(outs) > 0 {
			stack = append(stack, outs[len(outs)-1])
			adj[v] = outs[:len(outs)-1]
		} else {
			trail = append(trail, v)
			stack = stack[:len(stack)-1]
		}
	}
	slices.Reverse(trail)
	return trail
}

// countGraph returns a graph of n nodes (the last is the exit) and the
// edge counts of a random walk of about steps edges from node 0 to the
// exit: flow-conserving counts of one trail, with repeated edges, self
// loops and hubs of several successors.
func countGraph(rng *rand.Rand, n, steps int) (*cfg.Graph, map[edgeKey]int64) {
	g := &cfg.Graph{Entry: 0, Exit: cfg.NodeID(n - 1)}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, &cfg.Node{ID: cfg.NodeID(i)})
	}
	counts := make(map[edgeKey]int64)
	v := g.Entry
	for i := 0; i < steps || v != g.Exit; i++ {
		next := cfg.NodeID(rng.Intn(n - 1)) // stay off the exit until the walk is long enough
		if i >= steps {
			next = g.Exit
		}
		counts[edgeKey{v, next}]++
		v = next
	}
	return g, counts
}

// TestReconstructMatchesReference: over random flow-conserving count
// multigraphs, the per-node-run reconstruction yields exactly the
// trail of the original map-of-slices one.
func TestReconstructMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		g, counts := countGraph(rng, 2+rng.Intn(12), rng.Intn(200))
		got, err := reconstructTrail(g, counts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := referenceTrail(g.Entry, counts); !slices.Equal(got, want) {
			t.Fatalf("trial %d: trail differs from the reference\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestReconstructDisconnectedError: counts that form a trail plus two
// cycles the trail never reaches are rejected, and the error names the
// lowest unreached node with all its unused edges, the same every run.
func TestReconstructDisconnectedError(t *testing.T) {
	g := &cfg.Graph{Entry: 0, Exit: 6}
	for i := 0; i < 7; i++ {
		g.Nodes = append(g.Nodes, &cfg.Node{ID: cfg.NodeID(i)})
	}
	counts := map[edgeKey]int64{
		{0, 1}: 1, {1, 6}: 1, // the trail
		{4, 5}: 2, {5, 4}: 2, // a cycle taken twice
		{2, 3}: 1, {3, 2}: 1, {2, 2}: 3, // a cycle and a self loop
	}
	const want = "path reconstruction: 4 unused edges at node 2 (disconnected flow)"
	for i := 0; i < 20; i++ {
		_, err := reconstructTrail(g, counts)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", i, err, want)
		}
	}
}
