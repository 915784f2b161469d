package konfig

import (
	"context"
	"math/rand"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/wcet"
)

// TestKeyRegistry holds the registry's structural invariants: unique
// names, Get/Set round-trips over every in-domain value, Listing in
// canonical order, and unknown keys rejected by name.
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
		b := arch.MustLookup(id)
		base := mustDefault(id)
		for _, k := range Keys() {
			for _, v := range k.Domain(b) {
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
}

// TestHashIdentity holds Point.Hash stable under representation detail
// and distinct across assignments: equal points hash equal, any single
// in-domain reassignment to a different value changes the hash, and the
// empty-vs-canonical backend id normalises to the same identity.
func TestHashIdentity(t *testing.T) {
	base := mustDefault(arch.ARM1136ID)
	if got, want := base.Hash(), mustDefault("").Hash(); got != want {
		t.Errorf("canonical and empty arch ids hash apart: %s vs %s", got, want)
	}
	b := arch.MustLookup(arch.ARM1136ID)
	for _, k := range Keys() {
		cur, err := base.Get(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range k.Domain(b) {
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
// in-domain assignments over every key, on every backend. An accepted
// point must translate into structs the rest of the stack accepts —
// the image builds, the backend validates the hardware config, and the
// WCET analysis completes. A rejected point must name registered rules.
func TestRandomAssignmentsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized build+analyze property: skipped in -short")
	}
	ctx := context.Background()
	cache := wcet.NewCache()
	known := map[string]bool{}
	for _, n := range RuleNames() {
		known[n] = true
	}
	rng := rand.New(rand.NewSource(20260808))
	const trials = 60
	accepted, analyzed := 0, map[string]bool{}
	for _, id := range arch.BackendIDs() {
		b := arch.MustLookup(id)
		for i := 0; i < trials; i++ {
			p := mustDefault(id)
			for _, k := range Keys() {
				dom := k.Domain(b)
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
	}
	if accepted == 0 {
		t.Fatal("no random assignment was accepted; the property is vacuous")
	}
	t.Logf("accepted %d/%d random points, %d distinct analysis projections", accepted, trials*len(arch.BackendIDs()), len(analyzed))
}
