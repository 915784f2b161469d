package konfig

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/wcet"
)

// candidateValues lists plain raw values per assignable key, the same
// on every backend: which of them a backend can run is Validate's
// question, not the key's. A nil list marks a backend-fixed key, whose
// only value is the point's own.
var candidateValues = map[string][]string{
	"arch":                   arch.BackendIDs(),
	"sched.policy":           kindNames(),
	"vspace.design":          {"asid", "shadow"},
	"preempt.delete":         {"false", "true"},
	"preempt.clear":          {"false", "true"},
	"preempt.split-reply":    {"false", "true"},
	"ipc.fastpath":           {"false", "true"},
	"clear.chunk-bytes":      {"256", "512", "1024", "2048", "4096", "16384"},
	"debug.check-invariants": {"false", "true"},
	"cache.l1i.ways":         nil,
	"cache.l1d.ways":         nil,
	"cache.l2.ways":          nil,
	"cache.l1.pinned-ways":   {"0", "1", "2"},
	"cache.l2.enabled":       {"false", "true"},
	"cache.l2.lock-kernel":   {"false", "true"},
	"predictor.dynamic":      {"false", "true"},
	"mem.tcm":                {"false", "true"},
	"cache.replacement":      nil,
}

// candidates returns key k's candidate values on point p.
func candidates(t *testing.T, p Point, k Key) []string {
	t.Helper()
	vs, ok := candidateValues[k.Name]
	if !ok {
		t.Fatalf("key %s has no candidate values", k.Name)
	}
	if vs == nil {
		v, err := p.Get(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		return []string{v}
	}
	return vs
}

// TestKeyRegistry holds the registry's structural invariants: unique
// names, Get/Set round-trips over every candidate value, Listing in
// canonical order, unknown keys rejected by name, and backend-fixed
// keys refusing any value but their backend's, by name.
func TestKeyRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Keys() {
		if seen[k.Name] {
			t.Errorf("duplicate key name %s", k.Name)
		}
		seen[k.Name] = true
		if k.Doc == "" {
			t.Errorf("key %s has no doc line", k.Name)
		}
	}
	for _, id := range arch.BackendIDs() {
		base := mustDefault(id)
		for _, k := range Keys() {
			for _, v := range candidates(t, base, k) {
				p, err := base.Set(k.Name, v)
				if err != nil {
					t.Fatalf("%s: Set(%s, %s): %v", id, k.Name, v, err)
				}
				got, err := p.Get(k.Name)
				if err != nil {
					t.Fatal(err)
				}
				if got != v {
					t.Errorf("%s: %s round-trip: set %q, got %q", id, k.Name, v, got)
				}
			}
		}
	}
	if _, err := mustDefault("").Set("no.such.key", "1"); err == nil {
		t.Error("Set accepted an unknown key")
	}
	if _, err := mustDefault("").Get("no.such.key"); err == nil {
		t.Error("Get accepted an unknown key")
	}
	for _, name := range []string{"cache.l1i.ways", "cache.l1d.ways", "cache.l2.ways", "cache.replacement"} {
		if _, err := mustDefault(arch.CVA6RTID).Set(name, "3"); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Set(%s, 3) = %v, want an error naming the key", name, err)
		}
	}
}

// TestHashIdentity holds Point.Hash stable under representation detail
// and distinct across assignments: equal points hash equal, any single
// reassignment to a different candidate value changes the hash, and the
// empty-vs-canonical backend id normalises to the same identity.
func TestHashIdentity(t *testing.T) {
	base := mustDefault(arch.ARM1136ID)
	if got, want := base.Hash(), mustDefault("").Hash(); got != want {
		t.Errorf("canonical and empty arch ids hash apart: %s vs %s", got, want)
	}
	for _, k := range Keys() {
		cur, err := base.Get(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range candidates(t, base, k) {
			if v == cur {
				continue
			}
			p, err := base.Set(k.Name, v)
			if err != nil {
				t.Fatal(err)
			}
			if p.Hash() == base.Hash() {
				t.Errorf("reassigning %s=%s did not change the hash", k.Name, v)
			}
		}
	}
}

// TestRandomAssignmentsProperty is the validator property test: random
// candidate assignments over every key, on every backend. An accepted
// point must translate into structs the rest of the stack accepts —
// the image builds, the backend validates the hardware config, and the
// WCET analysis completes. A rejected point must name registered rules.
// The draws ignore what a backend has, so most CVA6-RT draws are
// refused; trials is sized so every backend still accepts points and
// the totals stay above the floors below.
func TestRandomAssignmentsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized build+analyze property: skipped in -short")
	}
	ctx := context.Background()
	cache := wcet.NewCache()
	known := map[string]bool{}
	for _, r := range Rules() {
		known[r.Name] = true
	}
	rng := rand.New(rand.NewSource(20260808))
	const trials = 960
	accepted, analyzed := 0, map[string]bool{}
	for _, id := range arch.BackendIDs() {
		b := arch.MustLookup(id)
		backendAccepted := 0
		for i := 0; i < trials; i++ {
			p := mustDefault(id)
			for _, k := range Keys() {
				if k.Name == "arch" {
					continue // the point stays on the backend under test
				}
				dom := candidates(t, p, k)
				var err error
				if p, err = p.Set(k.Name, dom[rng.Intn(len(dom))]); err != nil {
					t.Fatalf("%s: Set(%s): %v", id, k.Name, err)
				}
			}
			vs := Validate(p)
			if len(vs) > 0 {
				for _, v := range vs {
					if !known[v.Rule] {
						t.Errorf("%s: violation names unregistered rule %q", id, v.Rule)
					}
				}
				continue
			}
			accepted++
			backendAccepted++
			img, cons, hw, err := p.Build()
			if err != nil {
				t.Fatalf("accepted point %s does not build: %v", p.Hash(), err)
			}
			if err := b.ValidateConfig(hw); err != nil {
				t.Fatalf("accepted point %s rejected by backend: %v", p.Hash(), err)
			}
			// One analysis per distinct projection keeps the property
			// affordable; the cache makes repeats nearly free anyway.
			if key := p.AnalysisKey(); !analyzed[key] {
				analyzed[key] = true
				a := wcet.New(img, hw)
				a.AddConstraints(cons...)
				a.Cache = cache
				if _, err := a.AnalyzeContext(ctx, kbin.EntrySyscall); err != nil {
					t.Fatalf("accepted point %s does not analyze: %v", p.Hash(), err)
				}
			}
		}
		// The floors are what 60 draws per backend from each backend's
		// own feature set gave (15 and 14 points, 22 projections in
		// all); ungated draws must cover at least as much.
		if backendAccepted < 14 {
			t.Errorf("%s: accepted %d random points, want at least 14", id, backendAccepted)
		}
		t.Logf("%s: accepted %d/%d random points", id, backendAccepted, trials)
	}
	if len(analyzed) < 22 {
		t.Errorf("%d distinct analysis projections, want at least 22", len(analyzed))
	}
	t.Logf("accepted %d/%d random points, %d distinct analysis projections", accepted, trials*len(arch.BackendIDs()), len(analyzed))
}

// TestArchReassignment: assigning the arch key moves a point to the
// other backend whole. The backend-fixed keys follow the backend, so
// DefaultPoint(a) with arch=b is feasible and is DefaultPoint(b).
func TestArchReassignment(t *testing.T) {
	for _, a := range arch.BackendIDs() {
		for _, b := range arch.BackendIDs() {
			p, err := mustDefault(a).Set("arch", b)
			if err != nil {
				t.Fatalf("%s -> %s: %v", a, b, err)
			}
			if err := p.Check(); err != nil {
				t.Errorf("%s -> %s: %v", a, b, err)
			}
			if got, want := p.Hash(), mustDefault(b).Hash(); got != want {
				t.Errorf("%s -> %s: hash %s, want DefaultPoint(%s)'s %s", a, b, got, b, want)
			}
		}
	}
}

// latticeIdentityDigest is the SHA-256 over every DefaultSpace point's
// hash and listing on every backend, then every legacy matrix point's.
const latticeIdentityDigest = "9ab3e0a3821efcd4eea7673514d96a7b71d813c61efe66bdfbaf69e4d33abe0f"

// TestLatticeIdentityPinned holds every shipped lattice identity — the
// hash and the listing it is taken over — to a constant, so a change
// to the key registry or to a backend cannot silently re-key stamped
// snapshots, captures and artifact rows.
func TestLatticeIdentityPinned(t *testing.T) {
	h := sha256.New()
	write := func(name string, p Point) {
		fmt.Fprintf(h, "%s %s %s\n", name, p.Hash(), p.Listing())
	}
	for _, id := range arch.BackendIDs() {
		sp, err := DefaultSpace(id)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := Enumerate(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			write("space", p)
		}
		for _, m := range []func(string) ([]NamedPoint, error){LegacySoakMatrix, LegacyProbeMatrix} {
			nps, err := m(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, np := range nps {
				write(np.Name, np.Point)
			}
		}
	}
	for _, np := range LegacyHardwareMatrix() {
		write(np.Name, np.Point)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != latticeIdentityDigest {
		t.Errorf("lattice identity digest %s, want %s", got, latticeIdentityDigest)
	}
}
