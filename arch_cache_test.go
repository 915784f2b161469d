package verikern

import (
	"context"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/wcet"
)

// TestArchCacheInvalidation is the stale-result guard for backend
// switching: one shared analysis cache must never serve a result
// computed under one backend to an analysis running under another. The
// backend identity reaches the cache keys through two
// routes — the image fingerprint (kimage hashes the backend key) and
// the analyser's hardware fingerprint — and this test exercises the
// full path: same logical kernel, same entry point, same shared cache,
// two backends.
func TestArchCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	cache := wcet.NewCache()
	analyse := func(archID string) uint64 {
		t.Helper()
		img, cons, err := kbin.Build(kbin.Options{Modernised: true, Arch: archID})
		if err != nil {
			t.Fatalf("build %q: %v", archID, err)
		}
		a := wcet.New(img, arch.Config{Arch: archID})
		a.AddConstraints(cons...)
		a.Cache = cache
		res, err := a.AnalyzeContext(ctx, kbin.EntryInterrupt)
		if err != nil {
			t.Fatalf("analyse %q: %v", archID, err)
		}
		return res.Cycles
	}

	armWarm := analyse("")
	statsAfterARM := cache.Stats()
	cvaShared := analyse(arch.CVA6RTID)
	if cvaShared == armWarm {
		t.Fatalf("arm1136 and cva6rt interrupt bounds both %d through a shared cache: a backend switch was served a stale artifact", armWarm)
	}
	// The cva6rt run must have missed (not hit) on every whole-result
	// lookup the arm1136 run populated.
	if st := cache.Stats(); st.Misses == statsAfterARM.Misses {
		t.Fatalf("cva6rt analysis recorded no cache misses after an arm1136 run (stats %+v): its keys collide with arm1136's", st)
	}

	// Cross-check against an unshared cache: the shared-cache cva6rt
	// result must equal a from-scratch cva6rt analysis.
	fresh := wcet.NewCache()
	img, cons, err := kbin.Build(kbin.Options{Modernised: true, Arch: arch.CVA6RTID})
	if err != nil {
		t.Fatal(err)
	}
	a := wcet.New(img, arch.Config{Arch: arch.CVA6RTID})
	a.AddConstraints(cons...)
	a.Cache = fresh
	res, err := a.AnalyzeContext(ctx, kbin.EntryInterrupt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != cvaShared {
		t.Fatalf("cva6rt bound through shared cache = %d, from scratch = %d: the shared cache corrupted the analysis", cvaShared, res.Cycles)
	}

	// And arm1136 again through the shared cache: still the warm value.
	if again := analyse(""); again != armWarm {
		t.Fatalf("arm1136 bound changed across a cva6rt analysis on the same cache: %d then %d", armWarm, again)
	}
}

// TestImageFingerprintCarriesBackend: identically-built kernels on
// different backends must have different fingerprints — the property
// the analysis-cache keys inherit.
func TestImageFingerprintCarriesBackend(t *testing.T) {
	armImg, _, err := kbin.Build(kbin.Options{Modernised: true})
	if err != nil {
		t.Fatal(err)
	}
	cvaImg, _, err := kbin.Build(kbin.Options{Modernised: true, Arch: arch.CVA6RTID})
	if err != nil {
		t.Fatal(err)
	}
	if armImg.Fingerprint() == cvaImg.Fingerprint() {
		t.Fatalf("arm1136 and cva6rt images share fingerprint %s", armImg.Fingerprint())
	}
}
