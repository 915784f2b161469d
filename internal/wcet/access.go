package wcet

import (
	"verikern/internal/arch"
	"verikern/internal/cache"
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

// accessClass is how the must-analysis classifies one access.
type accessClass uint8

const (
	// accNone: no access (an instruction without a data reference),
	// or an access step was not asked to classify.
	accNone accessClass = iota
	// accTCM: the access lies in the ITCM or DTCM window, single-cycle
	// by construction and outside the caches.
	accTCM
	// accHit: always-hit, guaranteed by the must state or pinned (§4).
	accHit
	// accFirstMiss: a fetch not guaranteed, but persistent in its
	// innermost loop; its one miss is charged on the loop's entry
	// edges.
	accFirstMiss
	// accMiss: a fixed access with no guarantee.
	accMiss
	// accUnknown: a striding data reference whose footprint is not
	// wholly pinned; without pointer analysis (§5.3) it is
	// unclassifiable.
	accUnknown
)

// model is the must-cache model of one hardware configuration over one
// image: how an access is classified and how it changes the abstract
// state. It reads only the pin set and the TCM windows of the hardware;
// what each class costs is phase 2's (prices).
type model struct {
	be *arch.Backend
	// tcm holds only the hardware's TCM windows, the one part of the
	// configuration classification reads besides whether any way is
	// pinned: the class tier's key (classKey) is exactly these.
	tcm arch.Config
	// pinnedI and pinnedD are the image's pinned lines, nil without
	// pinned ways; every state shares them.
	pinnedI, pinnedD map[uint32]bool
}

func newModel(img *kimage.Image, hw arch.Config) *model {
	m := &model{be: hw.Backend(), tcm: arch.Config{TCMEnabled: hw.TCMEnabled, ITCMBase: hw.ITCMBase, DTCMBase: hw.DTCMBase}}
	if hw.PinnedL1Ways > 0 {
		m.pinnedI, m.pinnedD = img.PinnedCodeSet(), img.PinnedDataSet()
	}
	return m
}

// state returns a state with no guarantees but the pinned lines. Each
// side is a direct-mapped cache the size of one way.
func (m *model) state() absState {
	i := cache.NewMust(m.be.L1I.Sets(), m.be.L1I.LineBytes)
	d := cache.NewMust(m.be.L1D.Sets(), m.be.L1D.LineBytes)
	i.SetPinned(m.pinnedI)
	d.SetPinned(m.pinnedD)
	return absState{i: i, d: d}
}

// step applies one instruction's fetch at fa and its data reference d
// to s. With classify set it also returns how each access is
// classified; without it, it makes no hit checks and the classes of
// cached fixed accesses read accNone. firstMiss holds the fetch lines
// persistent in the instruction's innermost loop (nil for none).
//
// A fetch or fixed access makes its line the guaranteed one of its
// set, unless the line is pinned or in the TCM. A striding reference
// whose footprint is wholly pinned hits whatever address it resolves
// to and changes nothing; any other destroys the guarantee of every
// set its footprint can touch.
func (m *model) step(s absState, fa uint32, d kimage.DataRef, firstMiss map[uint32]bool, classify bool) (fetch, data accessClass) {
	if m.tcm.InITCM(fa) {
		fetch = accTCM
	} else {
		if classify {
			switch {
			case s.i.Hit(fa):
				fetch = accHit
			case firstMiss[lineOf(m.be, fa)]:
				fetch = accFirstMiss
			default:
				fetch = accMiss
			}
		}
		s.i.Update(fa)
	}
	switch {
	case d.Base == 0:
	case m.dataInTCM(d):
		data = accTCM
	case d.Fixed():
		if classify {
			data = accMiss
			if s.d.Hit(d.Base) {
				data = accHit
			}
		}
		s.d.Update(d.Base)
	case m.footprintPinned(d):
		data = accHit
	default:
		data = accUnknown
		m.clobberFootprint(s.d, d)
	}
	return fetch, data
}

// footprint returns the L1 lines a striding reference can touch: n
// consecutive lines from first, the lines of [Base,
// Base+Stride·(Count−1)+3], its first element's first byte to its last
// element's last (each element is one word).
func footprint(be *arch.Backend, d kimage.DataRef) (first uint32, n uint64) {
	first = lineOf(be, d.Base)
	last := lineOf(be, d.Base+d.Stride*(d.Count-1)+3)
	return first, uint64(last-first)/uint64(be.LineBytes) + 1
}

// footprintPinned reports whether every line a striding reference can
// touch is pinned.
func (m *model) footprintPinned(d kimage.DataRef) bool {
	if m.pinnedD == nil {
		return false
	}
	first, n := footprint(m.be, d)
	for k := uint64(0); k < n; k++ {
		if !m.pinnedD[first+uint32(k)*uint32(m.be.LineBytes)] {
			return false
		}
	}
	return true
}

// clobberFootprint removes the guarantee of every set a striding
// reference's footprint can touch: every set, when it spans a way.
func (m *model) clobberFootprint(s *cache.Must, d kimage.DataRef) {
	first, n := footprint(m.be, d)
	if n >= uint64(m.be.L1D.Sets()) {
		s.ClobberAll()
		return
	}
	for k := uint64(0); k < n; k++ {
		s.Clobber(first + uint32(k)*uint32(m.be.LineBytes))
	}
}

// dataInTCM reports whether a data reference's entire footprint lies
// in the data TCM window — single-cycle by construction, even for
// striding references (the whole range is known).
func (m *model) dataInTCM(d kimage.DataRef) bool {
	if !m.tcm.TCMEnabled {
		return false
	}
	if d.Fixed() {
		return m.tcm.InDTCM(d.Base)
	}
	first, n := footprint(m.be, d)
	return m.tcm.InDTCM(first) && m.tcm.InDTCM(first+uint32(n)*uint32(m.be.LineBytes)-1)
}

// lineOf returns the cache line of an address on backend be.
func lineOf(be *arch.Backend, a uint32) uint32 { return a &^ uint32(be.LineBytes-1) }

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
