package cache

import (
	"testing"
	"testing/quick"

	"verikern/internal/arch"
)

func testConfig(lockedWays int) Config {
	return Config{Sets: 128, Ways: 4, LineBytes: 32, LockedWays: lockedWays}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 4, LineBytes: 32},
		{Sets: 100, Ways: 4, LineBytes: 32},
		{Sets: 128, Ways: 0, LineBytes: 32},
		{Sets: 128, Ways: 4, LineBytes: 33},
		{Sets: 128, Ways: 4, LineBytes: 32, LockedWays: 4},
		{Sets: 128, Ways: 4, LineBytes: 32, LockedWays: -1},
		{Sets: 1, Ways: 4, LineBytes: 1},
		{Sets: 128, Ways: 1<<15 + 1, LineBytes: 32},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSizeBytes(t *testing.T) {
	cfg := testConfig(0)
	if got, want := cfg.SizeBytes(), 16*1024; got != want {
		t.Errorf("SizeBytes() = %d, want %d", got, want)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(testConfig(0))
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("first access hit an empty cache")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access to same line missed")
	}
	// Same line, different word.
	if r := c.Access(0x101C, false); !r.Hit {
		t.Error("access to same line, different offset missed")
	}
	// Different line.
	if r := c.Access(0x1020, false); r.Hit {
		t.Error("access to next line hit")
	}
}

func TestAssociativityHoldsConflicts(t *testing.T) {
	// 4 ways: 4 conflicting lines all fit, the 5th evicts one.
	c := New(testConfig(0))
	stride := uint32(128 * 32) // maps to the same set
	for i := uint32(0); i < 4; i++ {
		c.Access(0x1000+i*stride, false)
	}
	for i := uint32(0); i < 4; i++ {
		if r := c.Access(0x1000+i*stride, false); !r.Hit {
			t.Errorf("way %d evicted though set not full", i)
		}
	}
	c.Access(0x1000+4*stride, false) // evicts exactly one
	hits := 0
	for i := uint32(0); i < 5; i++ {
		if c.Contains(0x1000 + i*stride) {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("after 5th conflicting access, %d lines resident, want 4", hits)
	}
}

func TestRoundRobinVictimOrder(t *testing.T) {
	c := New(testConfig(0))
	stride := uint32(128 * 32)
	for i := uint32(0); i < 4; i++ {
		c.Access(uint32(0x1000)+i*stride, false)
	}
	// Round-robin starts at way 0: line 0 is the first victim.
	c.Access(0x1000+4*stride, false)
	if c.Contains(0x1000) {
		t.Error("round-robin did not evict the way-0 line first")
	}
	c.Access(0x1000+5*stride, false)
	if c.Contains(0x1000 + 1*stride) {
		t.Error("round-robin did not evict the way-1 line second")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, LineBytes: 32})
	if r := c.Access(0x0, true); r.Writeback {
		t.Error("filling an empty cache reported a writeback")
	}
	if r := c.Access(0x20, false); !r.Writeback {
		t.Error("evicting a dirty line did not report a writeback")
	}
	if r := c.Access(0x40, false); r.Writeback {
		t.Error("evicting a clean line reported a writeback")
	}
	_, _, wb := c.Stats()
	if wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
}

func TestPinSurvivesConflicts(t *testing.T) {
	c := New(testConfig(1))
	if !c.Pin(0x1000) {
		t.Fatal("Pin failed with a locked way available")
	}
	stride := uint32(128 * 32)
	// Hammer the same set with far more lines than ways.
	for i := uint32(1); i <= 64; i++ {
		c.Access(0x1000+i*stride, true)
	}
	if !c.Pinned(0x1000) {
		t.Error("pinned line was evicted by conflicting accesses")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("access to pinned line missed")
	}
}

func TestPinCapacity(t *testing.T) {
	c := New(testConfig(1))
	stride := uint32(128 * 32)
	if !c.Pin(0x1000) {
		t.Fatal("first pin failed")
	}
	if !c.Pin(0x1000) {
		t.Error("re-pinning the same line failed")
	}
	if c.Pin(0x1000 + stride) {
		t.Error("pinning a second conflicting line succeeded with 1 locked way")
	}
	// A different set still has room.
	if !c.Pin(0x1020) {
		t.Error("pin to a different set failed")
	}
}

func TestPinWithoutLockedWays(t *testing.T) {
	c := New(testConfig(0))
	if c.Pin(0x1000) {
		t.Error("Pin succeeded with no locked ways")
	}
}

func TestPolluteFillsCache(t *testing.T) {
	c := New(testConfig(0))
	c.Pollute(42)
	// Every subsequent distinct access must miss and evict dirty data.
	r := c.Access(0x1000, false)
	if r.Hit {
		t.Error("access hit immediately after pollution")
	}
	if !r.Writeback {
		t.Error("pollution did not install dirty lines")
	}
}

// TestPollutionLinesForeign: no 32-bit address has the tag of a line
// Pollute or DirtyFootprint installs, for any seed and unlocked way:
// every such tag exceeds the tag of the highest address, and the ways'
// tags differ. It covers every backend's L1I, L1D and L2, with and
// without a locked way, and geometries with tag widths from 16 to 27
// bits. A cache once filled unlocked ways from a band of tags that
// addresses 0x4000_0000-0x4FFF_FFFF produce; no address hits now.
func TestPollutionLinesForeign(t *testing.T) {
	var cfgs []Config
	for _, id := range arch.BackendIDs() {
		b := arch.MustLookup(id)
		for _, g := range []arch.CacheGeometry{b.L1I, b.L1D, b.L2} {
			if g.Ways > 0 {
				cfgs = append(cfgs, Config{Sets: g.Sets(), Ways: g.Ways, LineBytes: g.LineBytes})
			}
		}
	}
	for width := 16; width <= 27; width++ {
		cfgs = append(cfgs, Config{Sets: 1 << (32 - width - 4), Ways: 2 + width%3, LineBytes: 16})
	}
	seeds := []uint32{0, 1, 0x5555, 0xFFFF, 0x10000, 0xDEADBEEF, ^uint32(0)}
	probes := []uint32{0, 0x4000_0000, 0x4FFF_FFE0, 0x1234_5678, ^uint32(0)}
	for _, cfg := range cfgs {
		for locked := 0; locked < 2; locked++ {
			cfg.LockedWays = locked
			c := New(cfg)
			top := c.Tag(^uint32(0))
			check := func(op string, seed uint32, set int) {
				t.Helper()
				seen := make(map[uint32]bool)
				for w := locked; w < cfg.Ways; w++ {
					tag := c.tags[set*cfg.Ways+w]
					if tag <= top || seen[tag] {
						t.Fatalf("%+v %s seed %#x: set %d way %d has tag %#x (highest address tag %#x, repeated %v)",
							cfg, op, seed, set, w, tag, top, seen[tag])
					}
					seen[tag] = true
				}
				for _, a := range probes {
					if c.Contains(a) {
						t.Fatalf("%+v %s seed %#x: address %#x hits a pollution line", cfg, op, seed, a)
					}
				}
			}
			for _, seed := range seeds {
				c.Pollute(seed)
				for s := 0; s < cfg.Sets; s++ {
					check("Pollute", seed, s)
				}
				c = New(cfg)
				c.DirtyFootprint(probes, seed)
				for _, a := range probes {
					check("DirtyFootprint", seed, c.Set(a))
				}
			}
		}
	}
}

func TestPollutePreservesPins(t *testing.T) {
	c := New(testConfig(1))
	c.Pin(0x1000)
	c.Pollute(7)
	if !c.Pinned(0x1000) {
		t.Error("pollution evicted a pinned line")
	}
}

// TestPolluteForgetsEarlierAccesses: a used cache that resets its
// replacement state and is polluted holds exactly the lines and
// replacement pointers of a fresh cache polluted with the same seed,
// pinned lines included. The machine relies on this to reuse caches
// across runs.
func TestPolluteForgetsEarlierAccesses(t *testing.T) {
	used, fresh := New(testConfig(1)), New(testConfig(1))
	used.Pin(0x1000)
	fresh.Pin(0x1000)
	for a := uint32(0); a < 0x4000; a += 0x60 {
		used.Access(a, a&0x100 != 0)
	}
	used.AdvanceReplacement(3)
	for _, c := range []*Cache{used, fresh} {
		c.ResetReplacement()
		c.Pollute(9)
	}
	if got, want := stateString(used), stateString(fresh); got != want {
		t.Fatalf("polluted used cache:\n%s\nfresh cache:\n%s", got, want)
	}
}

func TestStatsCount(t *testing.T) {
	c := New(testConfig(0))
	c.Access(0x0, false)
	c.Access(0x0, false)
	c.Access(0x20, false)
	h, m, _ := c.Stats()
	if h != 1 || m != 2 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 2)", h, m)
	}
}

// Property: immediately re-accessing any address hits.
func TestPropertyRepeatAccessHits(t *testing.T) {
	c := New(testConfig(0))
	f := func(addr uint32) bool {
		c.Access(addr, false)
		return c.Access(addr, false).Hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the number of resident lines per set never exceeds the
// associativity; equivalently Contains is consistent with a bounded set.
func TestPropertySetOccupancyBounded(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 2, LineBytes: 32})
	seen := make(map[uint32]bool)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(a, a%3 == 0)
			seen[a&^31] = true
		}
		// Count resident lines per set.
		occ := make(map[int]int)
		for la := range seen {
			if c.Contains(la) {
				occ[c.Set(la)]++
			}
		}
		for _, n := range occ {
			if n > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a concrete cache is never less capable than the abstract
// must-cache — whenever Must guarantees a hit, the concrete cache hits.
// This is the soundness relation the analyser relies on (§5.1).
func TestPropertyMustAnalysisSound(t *testing.T) {
	c := New(testConfig(0))
	m := NewMust(128, 32)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			if m.Hit(a) && !c.Access(a, false).Hit {
				return false
			}
			if !m.Hit(a) {
				c.Access(a, false)
			}
			m.Update(a)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("must-analysis unsound: %v", err)
	}
}

func TestMustBasics(t *testing.T) {
	m := NewMust(128, 32)
	if m.Hit(0x1000) {
		t.Error("empty must-cache guaranteed a hit")
	}
	m.Update(0x1000)
	if !m.Hit(0x1000) {
		t.Error("must-cache lost an update")
	}
	if !m.Hit(0x101C) {
		t.Error("must-cache missed same-line offset")
	}
	// A conflicting access destroys the guarantee (direct-mapped model).
	m.Update(0x1000 + 128*32)
	if m.Hit(0x1000) {
		t.Error("must-cache kept guarantee across set conflict")
	}
}

func TestMustJoinIntersects(t *testing.T) {
	a := NewMust(128, 32)
	b := NewMust(128, 32)
	// 0x1000, 0x1020, 0x1040 map to distinct sets.
	a.Update(0x1000)
	a.Update(0x1020)
	b.Update(0x1000)
	b.Update(0x1040)
	changed := a.Join(b)
	if !changed {
		t.Error("join of differing states reported no change")
	}
	if !a.Hit(0x1000) {
		t.Error("join dropped a shared guarantee")
	}
	if a.Hit(0x1020) {
		t.Error("join kept a one-sided guarantee")
	}
	if a.Join(b.Clone()) {
		t.Error("second identical join reported change")
	}
}

func TestMustPinnedAlwaysHit(t *testing.T) {
	m := NewMust(128, 32)
	m.SetPinned(map[uint32]bool{0x1000: true})
	if !m.Hit(0x1008) {
		t.Error("pinned line not guaranteed hit")
	}
	m.ClobberAll()
	if !m.Hit(0x1000) {
		t.Error("ClobberAll dropped a pinned guarantee")
	}
	// Updates to pinned lines must not occupy set entries.
	m.Update(0x1000)
	if m.Hit(0x1000 + 128*32) {
		t.Error("unrelated address hit")
	}
}

func TestMustClobber(t *testing.T) {
	m := NewMust(128, 32)
	m.Update(0x1000)
	m.Clobber(0x1000 + 128*32) // same set
	if m.Hit(0x1000) {
		t.Error("Clobber left guarantee in place")
	}
}

// TestMustCloneIndependent: Clone and CopyFrom carry exactly the
// original's guarantees, pins included, and leave the copy independent
// of it; CopyFrom drops the destination's own guarantees and reuses
// its storage.
func TestMustCloneIndependent(t *testing.T) {
	m := NewMust(128, 32)
	m.SetPinned(map[uint32]bool{0x8040: true})
	m.Update(0x1000)
	dst := NewMust(128, 32)
	dst.Update(0x1020)
	tags := &dst.tags[0]
	dst.CopyFrom(m)
	if &dst.tags[0] != tags {
		t.Error("CopyFrom reallocated a same-geometry state")
	}
	for name, c := range map[string]*Must{"Clone": m.Clone(), "CopyFrom": dst} {
		if !c.Hit(0x1000) || !c.Hit(0x8040) || c.Hit(0x1000+128*32) || c.Hit(0x1020) {
			t.Errorf("%s does not carry exactly the original's guarantees", name)
		}
		c.Update(0x1000 + 128*32)
		if m.Hit(0x1000+128*32) || !m.Hit(0x1000) {
			t.Errorf("mutating the %s copy affected the original", name)
		}
		if c.Hit(0x1000) || !c.Hit(0x1000+128*32) {
			t.Errorf("diverged %s copy kept the evicted guarantee", name)
		}
	}
}
