// Package cache models the set-associative caches of the simulated
// platforms, with the geometry each hardware backend states (the split
// 4-way L1 caches and unified 8-way L2 of the ARM1136, §5.1 of the
// paper). It models round-robin replacement (the policy the analysed
// deployments use), way-locking for cache pinning (§4), dirty-line
// tracking for write-back cost, and an abstract "must" cache used by
// the static analyser's conservative direct-mapped approximation.
//
// The metadata layout is flat: tags and per-line flags live in two
// contiguous slices indexed by set*Ways+way, with the round-robin
// victim pointers in a third.
package cache

import (
	"fmt"
)

// Config describes a concrete cache instance.
type Config struct {
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size; must be a power of two.
	LineBytes int
	// LockedWays reserves the first LockedWays ways of every set
	// for pinned lines: replacement never selects them, so lines
	// installed there by Pin stay resident forever (§4).
	LockedWays int
}

// SizeBytes returns the total cache capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

func (c Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets must be a positive power of two, got %d", c.Sets)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size must be a positive power of two, got %d", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways must be positive, got %d", c.Ways)
	}
	if c.Ways > 1<<15 {
		return fmt.Errorf("cache: at most %d ways (distinct foreign tags per way), got %d", 1<<15, c.Ways)
	}
	if c.Sets*c.LineBytes < 2 {
		return fmt.Errorf("cache: sets times line size must be at least 2 (address tags leave bit 31 clear), got %d", c.Sets*c.LineBytes)
	}
	if c.LockedWays < 0 || c.LockedWays >= c.Ways {
		return fmt.Errorf("cache: locked ways must be in [0,%d), got %d", c.Ways, c.LockedWays)
	}
	return nil
}

// Per-line metadata bits. A line with flags 0 is invalid; dirty and
// pinned are only ever set on valid lines.
const (
	flagValid  uint8 = 1 << 0
	flagDirty  uint8 = 1 << 1
	flagPinned uint8 = 1 << 2
)

// Cache is a concrete set-associative cache. The zero value is not
// usable; construct with New.
type Cache struct {
	cfg Config
	// tags and flags hold set*Ways+way entries; rrNext holds the
	// round-robin victim pointer per set.
	tags   []uint32
	flags  []uint8
	rrNext []int32

	lineShift uint
	tagShift  uint
	setMask   uint32

	hits       uint64
	misses     uint64
	writebacks uint64
}

// New constructs a cache. It panics if the configuration is invalid;
// configurations are static platform descriptions, so an invalid one is
// a programming error.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:    cfg,
		tags:   make([]uint32, cfg.Sets*cfg.Ways),
		flags:  make([]uint8, cfg.Sets*cfg.Ways),
		rrNext: make([]int32, cfg.Sets),
	}
	c.lineShift = uint(log2(cfg.LineBytes))
	c.tagShift = c.lineShift + uint(log2(cfg.Sets))
	c.setMask = uint32(cfg.Sets - 1)
	c.ResetReplacement()
	return c
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Set returns the set index for an address.
func (c *Cache) Set(addr uint32) int {
	return int((addr >> c.lineShift) & c.setMask)
}

// Tag returns the tag for an address.
func (c *Cache) Tag(addr uint32) uint32 {
	return addr >> c.tagShift
}

// setLine overwrites line i.
func (c *Cache) setLine(i int, tag uint32, fl uint8) {
	c.tags[i] = tag
	c.flags[i] = fl
}

// Result describes the outcome of a cache access.
type Result struct {
	// Hit reports whether the line was resident.
	Hit bool
	// Writeback reports whether a dirty line was evicted to make
	// room for the new line.
	Writeback bool
}

// Access looks up addr, allocating the line on a miss. write marks the
// line dirty. It returns whether the access hit and whether the
// allocation evicted a dirty line.
func (c *Cache) Access(addr uint32, write bool) Result {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	end := base + c.cfg.Ways

	for i := base; i < end; i++ {
		if c.flags[i]&flagValid != 0 && c.tags[i] == tag {
			c.hits++
			if write {
				c.flags[i] |= flagDirty
			}
			return Result{Hit: true}
		}
	}

	c.misses++
	victim := base + c.victim(set, base)
	wb := c.flags[victim]&(flagValid|flagDirty) == flagValid|flagDirty
	if wb {
		c.writebacks++
	}
	fl := flagValid
	if write {
		fl |= flagDirty
	}
	c.setLine(victim, tag, fl)
	return Result{Hit: false, Writeback: wb}
}

// victim selects the way (relative to the set) to replace: an invalid
// unlocked way if there is one, else the set's round-robin pointer,
// which it advances. Locked ways are never selected.
func (c *Cache) victim(set, base int) int {
	lo := c.cfg.LockedWays
	for w := lo; w < c.cfg.Ways; w++ {
		if c.flags[base+w]&flagValid == 0 {
			return w
		}
	}
	v := int(c.rrNext[set])
	if v < lo || v >= c.cfg.Ways {
		v = lo
	}
	next := v + 1
	if next >= c.cfg.Ways {
		next = lo
	}
	c.rrNext[set] = int32(next)
	return v
}

// Pin installs addr's line into a locked way of its set and marks it
// pinned. It reports false if the set has no locked ways or all locked
// ways in the set are already pinned to other lines (the pin set does
// not fit). Pinning an already pinned line succeeds.
func (c *Cache) Pin(addr uint32) bool {
	if c.cfg.LockedWays == 0 {
		return false
	}
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.LockedWays; w++ {
		i := base + w
		if c.flags[i]&(flagValid|flagPinned) == flagValid|flagPinned && c.tags[i] == tag {
			return true
		}
	}
	for w := 0; w < c.cfg.LockedWays; w++ {
		i := base + w
		if c.flags[i]&flagValid == 0 || c.flags[i]&flagPinned == 0 {
			c.setLine(i, tag, flagValid|flagPinned)
			return true
		}
	}
	return false
}

// Pinned reports whether addr's line is currently pinned.
func (c *Cache) Pinned(addr uint32) bool {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.LockedWays; w++ {
		i := base + w
		if c.flags[i]&(flagValid|flagPinned) == flagValid|flagPinned && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Contains reports whether addr's line is resident (pinned or not).
func (c *Cache) Contains(addr uint32) bool {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&flagValid != 0 && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Pollute and DirtyFootprint install foreign lines: their tags have
// bit 31 set, and no address does, because a tag is its address shifted
// right by tagShift >= 1 bits (validate). So no access ever hits a line
// they installed, whatever the seed: a seed only renames lines no run
// can reach, and every run from a polluted state times alike under
// every seed. Way w of a cache polluted with seed s holds
// foreignTag(s, w), distinct per way (validate bounds Ways).
const foreignBit = 1 << 31

func foreignTag(seed uint32, w int) uint32 {
	return foreignBit | uint32(w)<<16 | seed&0xFFFF
}

// Pollute fills every non-pinned way of every set with distinct dirty
// foreign lines, the worst possible starting state for a measurement
// run (§5.4: "test programs pollute both the instruction and data
// caches with dirty cache lines"): every access misses and every
// eviction writes back. The tags derive from seed.
func (c *Cache) Pollute(seed uint32) {
	for s := 0; s < c.cfg.Sets; s++ {
		base := s * c.cfg.Ways
		for w := c.cfg.LockedWays; w < c.cfg.Ways; w++ {
			c.setLine(base+w, foreignTag(seed, w), flagValid|flagDirty)
		}
	}
}

// DirtyFootprint fills the non-pinned ways of exactly the sets that the
// given addresses map to with distinct dirty foreign lines, leaving
// every other set untouched. It is the targeted counterpart of Pollute:
// an adversary that knows a victim's footprint evicts precisely the
// lines the victim will re-fetch, without paying to dirty sets the
// victim never visits. The lines are Pollute's, so every listed address
// starts evicted and every eviction writes back.
func (c *Cache) DirtyFootprint(addrs []uint32, seed uint32) {
	for _, a := range addrs {
		base := c.Set(a) * c.cfg.Ways
		for w := c.cfg.LockedWays; w < c.cfg.Ways; w++ {
			c.setLine(base+w, foreignTag(seed, w), flagValid|flagDirty)
		}
	}
}

// ResetReplacement returns the replacement state to its power-on value
// without touching cache contents: every round-robin victim pointer at
// the first unlocked way.
func (c *Cache) ResetReplacement() {
	for s := range c.rrNext {
		c.rrNext[s] = int32(c.cfg.LockedWays)
	}
}

// AdvanceReplacement clocks the replacement state n steps without
// touching cache contents: the round-robin victim pointer of every set
// advances, skipping locked ways.
// Worst-case search uses it to sweep the victim-selection phase a run
// starts from — a dimension Pollute alone does not explore.
func (c *Cache) AdvanceReplacement(n int) {
	if n <= 0 {
		return
	}
	lo := int32(c.cfg.LockedWays)
	span := int32(c.cfg.Ways) - lo
	for s := range c.rrNext {
		v := c.rrNext[s] - lo
		c.rrNext[s] = lo + (v+int32(n))%span
	}
}

// Stats reports accumulated hit/miss/writeback counters.
func (c *Cache) Stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}
