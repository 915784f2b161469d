package cache

// Must is an abstract cache state for static "must" analysis. Per the
// paper (§5.1), the analyser approximates each set-associative cache as
// a direct-mapped cache of the size of one way: a line is guaranteed
// resident only if it was the most recently accessed line of its set.
// Must therefore tracks at most one tag per set; any contention is a
// (possible) eviction.
//
// The join of two states keeps a set's tag only when both predecessors
// agree — the standard must-analysis meet.
type Must struct {
	sets      int
	lineShift uint
	setMask   uint32
	// tags[s] holds the tag guaranteed resident in set s, or
	// mustTop if nothing is guaranteed.
	tags []uint32
	// pinned lines are always guaranteed resident and consume no
	// abstract state.
	pinned map[uint32]bool
}

const mustTop = ^uint32(0)

// NewMust constructs an abstract must-cache approximating a concrete
// cache with the given geometry: sets×lineBytes is the direct-mapped
// (one-way) capacity.
func NewMust(sets, lineBytes int) *Must {
	m := &Must{
		sets:      sets,
		lineShift: uint(log2(lineBytes)),
		setMask:   uint32(sets - 1),
		tags:      make([]uint32, sets),
	}
	for i := range m.tags {
		m.tags[i] = mustTop
	}
	return m
}

// SetPinned registers the pinned line set; pinned addresses always
// classify as hits and never occupy a set entry. The map is shared, not
// copied.
func (m *Must) SetPinned(pinned map[uint32]bool) { m.pinned = pinned }

func (m *Must) set(addr uint32) int {
	return int((addr >> m.lineShift) & m.setMask)
}

func (m *Must) tag(addr uint32) uint32 {
	return addr >> (m.lineShift + uint(log2(m.sets)))
}

// lineAddr returns the line-aligned address, the key used for pin sets.
func (m *Must) lineAddr(addr uint32) uint32 {
	return addr &^ (uint32(1)<<m.lineShift - 1)
}

// Hit reports whether an access to addr is guaranteed to hit in this
// state.
func (m *Must) Hit(addr uint32) bool {
	if m.pinned[m.lineAddr(addr)] {
		return true
	}
	return m.tags[m.set(addr)] == m.tag(addr)
}

// Update records an access to addr: its line becomes the guaranteed
// resident line of its set (evicting whatever guarantee was there).
// Pinned lines leave the state untouched.
func (m *Must) Update(addr uint32) {
	if m.pinned[m.lineAddr(addr)] {
		return
	}
	m.tags[m.set(addr)] = m.tag(addr)
}

// Clobber invalidates the guarantee for addr's set, modelling an
// access whose address is unknown to the analyser but known to map to
// this set, or a context switch on that set.
func (m *Must) Clobber(addr uint32) {
	m.tags[m.set(addr)] = mustTop
}

// ClobberAll drops every guarantee (unknown-address access or analysis
// entry state: the paper assumes nothing about the cache on kernel
// entry).
func (m *Must) ClobberAll() {
	for i := range m.tags {
		m.tags[i] = mustTop
	}
}

// Join intersects m with other in place: a set keeps its guarantee only
// if both states agree. It reports whether m changed.
func (m *Must) Join(other *Must) bool {
	changed := false
	for i := range m.tags {
		if m.tags[i] != mustTop && m.tags[i] != other.tags[i] {
			m.tags[i] = mustTop
			changed = true
		}
	}
	return changed
}

// Clone returns a deep copy sharing only the pinned set.
func (m *Must) Clone() *Must {
	c := new(Must)
	c.CopyFrom(m)
	return c
}

// CopyFrom overwrites m with a copy of other, sharing only the pinned
// set. It allocates nothing when m's geometry already matches.
func (m *Must) CopyFrom(other *Must) {
	m.sets, m.lineShift, m.setMask, m.pinned = other.sets, other.lineShift, other.setMask, other.pinned
	m.tags = append(m.tags[:0], other.tags...)
}
