package wcet

import (
	"verikern/internal/cfg"
	"verikern/internal/kimage"
)

// Persistence analysis: the paper's cache analysis computes "worst-case
// cache hit/miss scenarios for each data load, store and instruction
// fetch" (§6.3); the key scenario beyond always-hit is *first-miss* —
// a fetched line that cannot be evicted once loaded within a loop
// misses at most once per loop entry, not once per iteration.
//
// A line is persistent in a loop when no other fetch in the loop can
// touch its cache set. This is sound for the concrete cache too — a
// resident line is only evicted by a miss in its set, and during the
// loop no other line can miss into it. Instruction and data caches are
// separate, so data accesses never disturb a fetched line.
//
// In the IPET encoding, a persistent line's miss penalty moves from
// the per-iteration node cost to the loop's entry edges, so the ILP
// charges it once per loop entry.

// persistence holds the first-miss refinement's results.
type persistence struct {
	// lines maps loop index -> the fetch lines proven persistent in
	// that loop.
	lines []map[uint32]bool
	// innermost maps node -> index of its innermost containing
	// loop, or -1.
	innermost []int
}

// analyzePersistence computes persistent fetch lines per loop. It steps
// every fetch of a loop's body, in any order, through one state that
// starts with nothing but the pinned lines: a fetch then misses exactly
// when it is outside the ITCM, not pinned, and its set last held
// another line or none. A set where only one line ever misses holds that line
// persistently; a second missing line is a conflict.
func analyzePersistence(g *cfg.Graph, m *model) *persistence {
	p := &persistence{
		lines:     make([]map[uint32]bool, len(g.Loops)),
		innermost: make([]int, len(g.Nodes)),
	}
	for i := range p.innermost {
		p.innermost[i] = -1
	}
	// Innermost loop per node: the smallest containing body.
	for li, l := range g.Loops {
		for id := range l.Body {
			cur := p.innermost[id]
			if cur == -1 || len(g.Loops[li].Body) < len(g.Loops[cur].Body) {
				p.innermost[id] = li
			}
		}
	}

	const conflict = ^uint32(0)
	s := m.state()
	for li, l := range g.Loops {
		s.i.ClobberAll()
		// owner maps set -> the one line that missed there, or
		// conflict.
		owner := map[int]uint32{}
		for id := range l.Body {
			b := g.Node(id).Block
			if b == nil {
				continue
			}
			for i := range b.Instrs {
				fa := b.InstrAddr(i)
				if fetch, _ := m.step(s, fa, kimage.DataRef{}, nil, true); fetch != accMiss {
					continue
				}
				set := s.i.Set(fa)
				if _, seen := owner[set]; seen {
					owner[set] = conflict
				} else {
					owner[set] = lineOf(m.be, fa)
				}
			}
		}
		persistent := map[uint32]bool{}
		for _, line := range owner {
			if line != conflict {
				persistent[line] = true
			}
		}
		p.lines[li] = persistent
	}
	return p
}
