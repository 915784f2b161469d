package kbin

// A golden of every buildable image's fingerprint. The builder states
// its structural bounds through other packages' constants (kobj's
// limits, arch's geometry), so an edit there that moves a single
// address, stride or loop bound shows up here before it reaches any
// analysed number.
//
// Regenerate after an intentional image change with:
//
//	go test -run TestImageFingerprintsPinned -update ./internal/kbin

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verikern/internal/arch"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from the current builder")

// TestImageFingerprintsPinned builds every image Build accepts — each
// backend × modern/original × pinned/unpinned × TCM where the backend
// has one — and compares each fingerprint with the golden.
func TestImageFingerprintsPinned(t *testing.T) {
	var b strings.Builder
	for _, id := range arch.BackendIDs() {
		be := arch.MustLookup(id)
		for _, tcm := range []bool{false, true} {
			for _, modern := range []bool{false, true} {
				for _, pinned := range []bool{false, true} {
					o := Options{Arch: id, Modernised: modern, Pinned: pinned, TCM: tcm}
					img, _, err := Build(o)
					if tcm && !be.HasTCM {
						if err == nil {
							t.Errorf("%s: Build accepted a TCM image", o.Canonical())
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", o.Canonical(), err)
					}
					fmt.Fprintf(&b, "%s %s\n", o.Canonical(), img.Fingerprint())
				}
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("image fingerprints differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
