package konfig

import (
	"reflect"
	"sort"
	"testing"

	"verikern/internal/arch"
)

// crossProduct is DefaultSpace's cross product built the long way: every
// assignment, through Point.Set, in Enumerate's sorted key order.
func crossProduct(t *testing.T, sp Space) []Point {
	t.Helper()
	base, err := DefaultPoint(sp.Arch)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(sp.Vary))
	for n := range sp.Vary {
		names = append(names, n)
	}
	sort.Strings(names)
	points := []Point{base}
	for _, name := range names {
		var next []Point
		for _, p := range points {
			for _, v := range sp.Vary[name] {
				q, err := p.Set(name, v)
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, q)
			}
		}
		points = next
	}
	return points
}

// TestEnumerateMatchesValidate holds Enumerate's diagnostic-free filter
// to the rule engine's verdict: on both backends it returns exactly the
// cross-product points Validate finds no violation in, in order.
func TestEnumerateMatchesValidate(t *testing.T) {
	for _, id := range []string{arch.ARM1136ID, arch.CVA6RTID} {
		sp, err := DefaultSpace(id)
		if err != nil {
			t.Fatal(err)
		}
		all := crossProduct(t, sp)
		var want []Point
		for _, p := range all {
			if len(Validate(p)) == 0 {
				want = append(want, p)
			}
		}
		got, err := Enumerate(sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == len(all) || len(want) == 0 {
			t.Fatalf("%s: Validate keeps %d of %d candidates; the space must exercise the filter", id, len(want), len(all))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Enumerate returned %d points, the Validate-filtered cross product has %d (or they differ in order or content)", id, len(got), len(want))
		}
	}
}

// maxEnumerateAllocs caps the allocations of one Enumerate(DefaultSpace)
// per backend: the key-name list and one slice per crossed key. Building
// a diagnostic for each refused candidate, or heap-allocating a point
// per key assignment, costs hundreds.
const maxEnumerateAllocs = 16

// TestEnumerateAllocs holds the lattice walk to the allocations of its
// own slices.
func TestEnumerateAllocs(t *testing.T) {
	for _, id := range []string{arch.ARM1136ID, arch.CVA6RTID} {
		sp, err := DefaultSpace(id)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Enumerate(sp); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per Enumerate", id, allocs)
		if allocs > maxEnumerateAllocs {
			t.Errorf("%s: Enumerate(DefaultSpace) made %.0f allocations, want at most %d", id, allocs, maxEnumerateAllocs)
		}
	}
}
