package cache

import "testing"

// TestDirtyFootprintEvictsListedAddrs: every listed address must start
// evicted, and its set full of dirty conflicting lines, while other
// sets stay empty.
func TestDirtyFootprintEvictsListedAddrs(t *testing.T) {
	c := New(Config{Sets: 16, Ways: 4, LineBytes: 32})
	addrs := []uint32{0x8000_0000, 0x8000_0020, 0x8000_0400}
	for _, a := range addrs {
		c.Access(a, false) // make the footprint resident
	}
	c.DirtyFootprint(addrs, 42)
	for _, a := range addrs {
		if c.Contains(a) {
			t.Errorf("addr %#x still resident after DirtyFootprint", a)
		}
	}
	// An untouched set keeps its (empty) state: an access there misses
	// without writeback.
	if r := c.Access(0x8000_0100, false); r.Writeback {
		t.Errorf("untouched set produced a writeback after DirtyFootprint")
	}
	// A re-access of a footprint set must evict a dirty line.
	if r := c.Access(addrs[0], false); r.Hit || !r.Writeback {
		t.Errorf("footprint set re-access: hit=%v writeback=%v, want miss with writeback", r.Hit, r.Writeback)
	}
}

// TestDirtyFootprintSkipsLockedWays: pinned lines survive targeted
// dirtying exactly as they survive Pollute.
func TestDirtyFootprintSkipsLockedWays(t *testing.T) {
	c := New(Config{Sets: 8, Ways: 4, LineBytes: 32, LockedWays: 1})
	const pinned = 0x8000_0000
	if !c.Pin(pinned) {
		t.Fatal("pin failed")
	}
	c.DirtyFootprint([]uint32{pinned}, 7)
	if !c.Pinned(pinned) || !c.Contains(pinned) {
		t.Errorf("pinned line evicted by DirtyFootprint")
	}
}

// TestAdvanceReplacementShiftsVictims: advancing the round-robin state
// changes which way a subsequent allocation replaces.
func TestAdvanceReplacementShiftsVictims(t *testing.T) {
	mk := func() *Cache {
		c := New(Config{Sets: 4, Ways: 4, LineBytes: 32})
		// Fill one set.
		for w := uint32(0); w < 4; w++ {
			c.Access(w<<7, false)
		}
		return c
	}
	base := mk()
	base.Access(4<<7, false) // evicts the way rrNext points at
	adv := mk()
	adv.AdvanceReplacement(1)
	adv.Access(4<<7, false)
	// The two caches must now disagree on which of the original lines
	// survived.
	diff := false
	for w := uint32(0); w < 4; w++ {
		if base.Contains(w<<7) != adv.Contains(w<<7) {
			diff = true
		}
	}
	if !diff {
		t.Errorf("AdvanceReplacement(1) did not change the victim way")
	}
}
