package cache

// A map-based reference implementation of the cache model, kept as a
// test-only oracle for the flattened slice-based Cache. It is a direct
// port of the original per-set struct layout: sets materialise in maps
// on first touch, so it exercises none of the index arithmetic the
// production implementation relies on.

type refLine struct {
	valid  bool
	dirty  bool
	pinned bool
	tag    uint32
}

type refCache struct {
	cfg   Config
	sets  map[int][]refLine
	rr    map[int]int
	hits  uint64
	miss  uint64
	wback uint64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		cfg:  cfg,
		sets: make(map[int][]refLine),
		rr:   make(map[int]int),
	}
}

func (c *refCache) set(addr uint32) int {
	return int((addr >> uint(log2(c.cfg.LineBytes))) & uint32(c.cfg.Sets-1))
}

func (c *refCache) tag(addr uint32) uint32 {
	return addr >> uint(log2(c.cfg.LineBytes)+log2(c.cfg.Sets))
}

func (c *refCache) ways(set int) []refLine {
	w := c.sets[set]
	if w == nil {
		w = make([]refLine, c.cfg.Ways)
		c.sets[set] = w
	}
	return w
}

func (c *refCache) rrOf(set int) int {
	if v, ok := c.rr[set]; ok {
		return v
	}
	return c.cfg.LockedWays
}

func (c *refCache) access(addr uint32, write bool) Result {
	set := c.set(addr)
	tag := c.tag(addr)
	ways := c.ways(set)
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			c.hits++
			if write {
				ways[w].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.miss++
	victim := c.victim(set, ways)
	wb := ways[victim].valid && ways[victim].dirty
	if wb {
		c.wback++
	}
	ways[victim] = refLine{valid: true, dirty: write, tag: tag}
	return Result{Hit: false, Writeback: wb}
}

func (c *refCache) victim(set int, ways []refLine) int {
	lo := c.cfg.LockedWays
	for w := lo; w < c.cfg.Ways; w++ {
		if !ways[w].valid {
			return w
		}
	}
	v := c.rrOf(set)
	if v < lo || v >= c.cfg.Ways {
		v = lo
	}
	next := v + 1
	if next >= c.cfg.Ways {
		next = lo
	}
	c.rr[set] = next
	return v
}

func (c *refCache) pin(addr uint32) bool {
	if c.cfg.LockedWays == 0 {
		return false
	}
	set := c.set(addr)
	tag := c.tag(addr)
	ways := c.ways(set)
	for w := 0; w < c.cfg.LockedWays; w++ {
		if ways[w].valid && ways[w].pinned && ways[w].tag == tag {
			return true
		}
	}
	for w := 0; w < c.cfg.LockedWays; w++ {
		if !ways[w].valid || !ways[w].pinned {
			ways[w] = refLine{valid: true, pinned: true, tag: tag}
			return true
		}
	}
	return false
}

// refForeign is the tag of way w's pollution line: bit 31 set, which
// no tag of a 32-bit address shifted right by at least one bit has, the
// way in bits 16-30 and the seed's low half below.
func refForeign(seed uint32, w int) uint32 {
	return 1<<31 + uint32(w)<<16 + seed%(1<<16)
}

func (c *refCache) pollute(seed uint32) {
	for s := 0; s < c.cfg.Sets; s++ {
		ways := c.ways(s)
		for w := c.cfg.LockedWays; w < c.cfg.Ways; w++ {
			ways[w] = refLine{valid: true, dirty: true, tag: refForeign(seed, w)}
		}
	}
}

func (c *refCache) dirtyFootprint(addrs []uint32, seed uint32) {
	for _, a := range addrs {
		ways := c.ways(c.set(a))
		for w := c.cfg.LockedWays; w < c.cfg.Ways; w++ {
			ways[w] = refLine{valid: true, dirty: true, tag: refForeign(seed, w)}
		}
	}
}

func (c *refCache) advanceReplacement(n int) {
	if n <= 0 {
		return
	}
	lo := c.cfg.LockedWays
	span := c.cfg.Ways - lo
	for s := 0; s < c.cfg.Sets; s++ {
		v := c.rrOf(s) - lo
		c.rr[s] = lo + (v+n)%span
	}
}

// matches reports whether the production cache's observable state is
// identical to the reference's, returning a description of the first
// divergence.
func (c *refCache) matches(pc *Cache) (bool, string) {
	for s := 0; s < c.cfg.Sets; s++ {
		ways := c.sets[s]
		for w := 0; w < c.cfg.Ways; w++ {
			var want refLine
			if ways != nil {
				want = ways[w]
			}
			i := s*c.cfg.Ways + w
			got := refLine{
				valid:  pc.flags[i]&flagValid != 0,
				dirty:  pc.flags[i]&flagDirty != 0,
				pinned: pc.flags[i]&flagPinned != 0,
				tag:    pc.tags[i],
			}
			if !got.valid {
				got.tag = 0 // invalid tags are canonical-zero in the reference
			}
			if !want.valid {
				want.tag = 0
			}
			if got != want {
				return false, stateDiff("set", s, "way", w, want, got)
			}
		}
		if c.rrOf(s) != int(pc.rrNext[s]) {
			return false, stateDiff("set", s, "rr", 0, c.rrOf(s), pc.rrNext[s])
		}
	}
	h, m, wb := pc.Stats()
	if h != c.hits || m != c.miss || wb != c.wback {
		return false, stateDiff("stats", 0, "", 0,
			[3]uint64{c.hits, c.miss, c.wback}, [3]uint64{h, m, wb})
	}
	return true, ""
}
