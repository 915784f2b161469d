package wcet

import (
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
