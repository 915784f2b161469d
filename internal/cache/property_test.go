package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// stateString renders the valid lines and replacement state compactly,
// for failure messages.
func stateString(c *Cache) string {
	var b strings.Builder
	for s := 0; s < c.cfg.Sets; s++ {
		base := s * c.cfg.Ways
		wrote := false
		for w := 0; w < c.cfg.Ways; w++ {
			i := base + w
			if c.flags[i]&flagValid == 0 {
				continue
			}
			if !wrote {
				fmt.Fprintf(&b, "set %d rr %d:", s, c.rrNext[s])
				wrote = true
			}
			fmt.Fprintf(&b, " w%d=%x/%x", w, c.tags[i], c.flags[i])
		}
		if wrote {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func stateDiff(kind string, a int, sub string, b int, want, got any) string {
	return fmt.Sprintf("%s %d %s %d: reference %v, flat %v", kind, a, sub, b, want, got)
}

// propConfig is one sampled configuration; id fixes its random seed
// and its subtest name.
type propConfig struct {
	id  int
	cfg Config
}

// propConfigs samples the configuration space: with and without locked
// ways, small and platform-sized geometries.
func propConfigs() []propConfig {
	return []propConfig{
		{0, Config{Sets: 8, Ways: 4, LineBytes: 32}},
		{1, Config{Sets: 8, Ways: 4, LineBytes: 32, LockedWays: 1}},
		{2, Config{Sets: 8, Ways: 4, LineBytes: 32, LockedWays: 2}},
		{7, Config{Sets: 128, Ways: 4, LineBytes: 32, LockedWays: 1}},
		{8, Config{Sets: 512, Ways: 8, LineBytes: 32, LockedWays: 4}},
	}
}

// randAddr draws addresses from a space a few times larger than the
// cache so both conflict misses and re-hits are common.
func randAddr(rng *rand.Rand, cfg Config) uint32 {
	span := uint32(cfg.SizeBytes()) * 4
	return 0x1000 + rng.Uint32()%span
}

// applyRandomOp drives one random operation against both
// implementations, returning a description of the op for failure
// messages. The op vocabulary covers every mutating entry point,
// including the priming APIs the adversarial probe uses.
func applyRandomOp(rng *rand.Rand, cfg Config, pc *Cache, rc *refCache) string {
	switch k := rng.Intn(10); k {
	case 0, 1, 2, 3: // reads dominate
		a := randAddr(rng, cfg)
		got, want := pc.Access(a, false), rc.access(a, false)
		if got != want {
			return fmt.Sprintf("read %#x: flat %+v reference %+v", a, got, want)
		}
		return ""
	case 4, 5: // writes
		a := randAddr(rng, cfg)
		got, want := pc.Access(a, true), rc.access(a, true)
		if got != want {
			return fmt.Sprintf("write %#x: flat %+v reference %+v", a, got, want)
		}
		return ""
	case 6:
		a := randAddr(rng, cfg)
		got, want := pc.Pin(a), rc.pin(a)
		if got != want {
			return fmt.Sprintf("pin %#x: flat %v reference %v", a, got, want)
		}
		return ""
	case 7:
		seed := rng.Uint32()
		pc.Pollute(seed)
		rc.pollute(seed)
		return ""
	case 8:
		addrs := make([]uint32, 1+rng.Intn(8))
		for i := range addrs {
			addrs[i] = randAddr(rng, cfg)
		}
		seed := rng.Uint32()
		pc.DirtyFootprint(addrs, seed)
		rc.dirtyFootprint(addrs, seed)
		return ""
	default:
		n := rng.Intn(17)
		pc.AdvanceReplacement(n)
		rc.advanceReplacement(n)
		return ""
	}
}

// TestFlatMatchesReference drives long random op sequences through the
// flat implementation and the map-based reference and demands identical
// results, statistics and final state at every step boundary.
func TestFlatMatchesReference(t *testing.T) {
	for _, pc := range propConfigs() {
		ci, cfg := pc.id, pc.cfg
		t.Run(fmt.Sprintf("cfg%d_round-robin_lock%d", ci, cfg.LockedWays), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xC0FFEE + ci)))
			pc := New(cfg)
			rc := newRefCache(cfg)
			for step := 0; step < 4000; step++ {
				if msg := applyRandomOp(rng, cfg, pc, rc); msg != "" {
					t.Fatalf("step %d: %s", step, msg)
				}
				if step%257 == 0 {
					if ok, msg := rc.matches(pc); !ok {
						t.Fatalf("step %d: state diverged: %s\nflat state:\n%s", step, msg, stateString(pc))
					}
				}
			}
			if ok, msg := rc.matches(pc); !ok {
				t.Fatalf("final state diverged: %s", msg)
			}
		})
	}
}
