package wcet

import (
	"verikern/internal/arch"
	"verikern/internal/cache"
	"verikern/internal/cfg"
	"verikern/internal/kimage"
)

// absState is the abstract cache state at a program point: must-caches
// for the L1 instruction and data sides. Per the paper (§5.1), each
// 4-way cache is approximated as a direct-mapped cache the size of one
// way, so "guaranteed hit" means "most recently accessed line of its
// set". The L2 yields no analysable guarantees under this model (any
// L1 miss may or may not reach it), so L2-enabled configurations pay
// the higher memory latency on every unclassified access — which is
// exactly why the paper's computed bounds worsen with the L2 enabled
// (§6, Table 2) even though observed times improve.
type absState struct {
	i *cache.Must
	d *cache.Must
}

func (s absState) clone() absState { return absState{i: s.i.Clone(), d: s.d.Clone()} }

// copyFrom overwrites s with o's guarantees without allocating.
func (s absState) copyFrom(o absState) {
	s.i.CopyFrom(o.i)
	s.d.CopyFrom(o.d)
}

func (s absState) join(o absState) bool {
	ci := s.i.Join(o.i)
	cd := s.d.Join(o.d)
	return ci || cd
}

// missCost returns the worst-case penalty of an unclassified access.
// With the L2 disabled: a memory access plus a possible dirty L1
// victim write-back. With it enabled, the worst case stacks three
// costs — the dirty L1 victim draining into the L2, an L2 miss
// serviced by memory, and a dirty L2 victim write-back — which is why
// computed bounds worsen when the L2 is turned on (Table 2) even
// though average-case performance improves.
func missCost(hw arch.Config) uint64 {
	b := hw.Backend()
	if hw.L2Enabled {
		return b.LatMemL2On + b.LatL2Hit/2 + b.LatMemL2On/2
	}
	return b.LatMemL2Off + b.LatMemL2Off/2
}

// fetchMissCost bounds an unclassified instruction fetch. With the
// kernel text locked into the L2 (§4's future-work configuration), an
// L1 fetch miss is guaranteed an L2 hit, so the bound drops from the
// memory latency to the L2 hit latency — the "drastic" improvement the
// paper anticipates.
func fetchMissCost(hw arch.Config) uint64 {
	if hw.L2Enabled && hw.L2LockedKernel {
		b := hw.Backend()
		return b.LatL2Hit + b.LatL2Hit/2
	}
	return missCost(hw)
}

// classify runs the must-analysis to a fixpoint over the inlined
// graph, applies the first-miss persistence refinement, and derives a
// worst-case cycle cost for every node plus a one-off cost per loop
// (charged on its entry edges by the IPET encoding).
func (a *Analyzer) classify(g *cfg.Graph) ([]uint64, []uint64, ClassStats) {
	be := a.HW.Backend()
	l1i := be.L1I
	l1d := be.L1D

	newState := func() absState {
		i := cache.NewMust(l1i.Sets()*1, l1i.LineBytes) // one way: direct-mapped of way size
		d := cache.NewMust(l1d.Sets()*1, l1d.LineBytes)
		if a.HW.PinnedL1Ways > 0 {
			i.SetPinned(a.Img.PinnedCodeSet())
			d.SetPinned(a.Img.PinnedDataSet())
		}
		return absState{i: i, d: d}
	}

	// in-states per node; entry starts with no guarantees (the paper
	// assumes nothing about the cache at kernel entry).
	in := make([]absState, len(g.Nodes))
	in[g.Entry] = newState()

	// One scratch state per call carries each node's out-state and,
	// below, its cost walk; only a successor's first in-state is a
	// fresh copy.
	scratch := newState()

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
			a.applyTransfer(out, g.Node(id))
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

	// Persistence (first-miss) refinement per loop.
	pers := analyzePersistence(g, a.Img, a.HW)
	// Per-loop sets of lines whose single miss is charged at loop
	// entry.
	chargedI := make([]map[uint32]bool, len(g.Loops))
	chargedD := make([]map[uint32]bool, len(g.Loops))
	for i := range chargedI {
		chargedI[i] = map[uint32]bool{}
		chargedD[i] = map[uint32]bool{}
	}

	// Derive node costs from the final in-states.
	costs := make([]uint64, len(g.Nodes))
	var stats ClassStats
	miss := missCost(a.HW)
	fetchMiss := fetchMissCost(a.HW)
	branch := be.WorstBranchCost(a.HW.BranchPredictor)
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
		var c uint64
		for i := range n.Block.Instrs {
			ins := &n.Block.Instrs[i]
			c += be.BaseCost(ins.Class)
			fa := n.Block.InstrAddr(i)
			switch {
			case a.HW.InITCM(fa):
				// Tightly-coupled memory: single-cycle by
				// construction, no cache involvement.
				stats.FetchHit++
			case s.i.Hit(fa):
				stats.FetchHit++
				s.i.Update(fa)
			case pers.persistentFetch(n.ID, fa):
				// First-miss: the line survives the whole
				// loop, so its one miss is charged on the
				// loop's entry edges instead of per
				// iteration.
				stats.FetchFirstMiss++
				chargedI[pers.innermost[n.ID]][lineOf(be, fa)] = true
				s.i.Update(fa)
			default:
				stats.FetchMiss++
				c += fetchMiss
				s.i.Update(fa)
			}
			if ins.Data.Base != 0 {
				d := ins.Data
				switch {
				case dataInTCM(a.HW, d):
					stats.DataHit++
				case d.Fixed() && !s.d.Hit(d.Base) && pers.persistentData(n.ID, d.Base):
					stats.DataFirstMiss++
					chargedD[pers.innermost[n.ID]][lineOf(be, d.Base)] = true
					s.d.Update(d.Base)
				default:
					applyData(be, s, d, &c, &stats, miss)
				}
			}
		}
		c += branch
		costs[n.ID] = c
	}

	// One-off loop-entry costs.
	loopEntry := make([]uint64, len(g.Loops))
	for li := range g.Loops {
		loopEntry[li] = uint64(len(chargedI[li]))*fetchMiss + uint64(len(chargedD[li]))*miss
	}
	return costs, loopEntry, stats
}

// applyData classifies and applies one data reference.
func applyData(be *arch.Backend, s absState, d kimage.DataRef, cost *uint64, stats *ClassStats, miss uint64) {
	if d.Fixed() {
		if s.d.Hit(d.Base) {
			stats.DataHit++
		} else {
			stats.DataMiss++
			*cost += miss
		}
		s.d.Update(d.Base)
		return
	}
	// A striding reference with a fully pinned footprint is a
	// guaranteed hit even without pointer analysis: whatever address
	// it resolves to is locked in the cache (§4 pins the IPC
	// buffers and key data regions for exactly this reason).
	if footprintPinned(be, s.d, d) {
		stats.DataHit++
		return
	}
	// Otherwise the analyser has no pointer analysis for traversals
	// (§5.3), so the access is unclassifiable — charge a miss and
	// destroy the guarantees of every set its footprint can touch.
	stats.DataUnknown++
	*cost += miss
	clobberFootprint(be, s.d, d)
}

// footprintPinned reports whether every line a striding reference can
// touch is pinned.
func footprintPinned(be *arch.Backend, m *cache.Must, d kimage.DataRef) bool {
	span := uint64(d.Stride)*uint64(d.Count-1) + 4
	if span > uint64(be.L1D.WaySizeBytes()) {
		return false
	}
	for off := uint64(0); off < span; off += uint64(be.LineBytes) {
		if !m.Hit(d.Base + uint32(off)) {
			return false
		}
	}
	return true
}

// clobberFootprint removes must-guarantees for every cache set a
// striding reference may touch.
func clobberFootprint(be *arch.Backend, m *cache.Must, d kimage.DataRef) {
	span := uint64(d.Stride) * uint64(d.Count)
	if span >= uint64(be.L1D.WaySizeBytes()) {
		m.ClobberAll()
		return
	}
	for off := uint64(0); off <= span; off += uint64(be.LineBytes) {
		m.Clobber(d.Base + uint32(off))
	}
}

// dataInTCM reports whether a data reference's entire footprint lies
// in the data TCM window — single-cycle by construction, even for
// striding references (the whole range is known).
func dataInTCM(hw arch.Config, d kimage.DataRef) bool {
	if !hw.TCMEnabled {
		return false
	}
	if d.Fixed() {
		return hw.InDTCM(d.Base)
	}
	last := d.Base + d.Stride*(d.Count-1)
	return hw.InDTCM(d.Base) && hw.InDTCM(last+3)
}

// applyTransfer advances the abstract state across a node's block.
// TCM accesses bypass the caches entirely.
func (a *Analyzer) applyTransfer(s absState, n *cfg.Node) {
	if n.Block == nil {
		return
	}
	be := a.HW.Backend()
	for i := range n.Block.Instrs {
		ins := &n.Block.Instrs[i]
		if fa := n.Block.InstrAddr(i); !a.HW.InITCM(fa) {
			s.i.Update(fa)
		}
		if ins.Data.Base == 0 || dataInTCM(a.HW, ins.Data) {
			continue
		}
		if ins.Data.Fixed() {
			s.d.Update(ins.Data.Base)
		} else {
			clobberFootprint(be, s.d, ins.Data)
		}
	}
}
