package verikern

// A golden of every number the WCET analyser's cache classification
// produces across the configuration lattice: per point and entry, the
// bound, the classification counters and the analyser's cost of the
// reconstructed worst-case path (TraceCycles). A change to how one
// access is classified, how it updates the abstract state, or which
// lines a striding reference covers shows up here on the first
// configuration it moves.
//
// Regenerate after an intentional analysis change with:
//
//	go test -run TestAnalyserBoundsPinned -update .

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/wcet"
)

// boundsSpace is the sub-lattice the golden covers on one backend:
// every value of the keys that change the analysed image or timing
// model, with up to two pinned L1 ways. Infeasible combinations are
// dropped by konfig.Enumerate.
func boundsSpace(t *testing.T, archID string) konfig.Space {
	t.Helper()
	be := arch.MustLookup(archID)
	vary := map[string][]string{}
	for _, k := range konfig.Keys() {
		switch k.Name {
		case "sched.policy", "preempt.delete", "preempt.clear", "mem.tcm",
			"cache.l2.enabled", "cache.l2.lock-kernel", "predictor.dynamic":
			vary[k.Name] = k.Domain(be)
		case "cache.l1.pinned-ways":
			for _, v := range k.Domain(be) {
				if n, err := strconv.Atoi(v); err == nil && n <= 2 {
					vary[k.Name] = append(vary[k.Name], v)
				}
			}
		}
	}
	return konfig.Space{Arch: archID, Vary: vary}
}

// TestAnalyserBoundsPinned analyses every entry at every point of
// boundsSpace on both backends and compares Cycles, the classification
// counters and TraceCycles with testdata/goldens/analyser_bounds.txt.
func TestAnalyserBoundsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("780 analyses: skipped in -short")
	}
	c := wcet.NewCache()
	var b strings.Builder
	for _, id := range arch.BackendIDs() {
		points, err := konfig.Enumerate(boundsSpace(t, id))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			a, err := p.Analyzer(c, nil)
			if err != nil {
				t.Fatalf("%s: %v", p.Hash(), err)
			}
			for _, e := range EntryPoints() {
				r, err := a.Analyze(string(e))
				if err != nil {
					t.Fatalf("%s %s: %v", p.Hash(), e, err)
				}
				s := r.Classified
				fmt.Fprintf(&b, "%s %s %s cycles=%d fetch=%d/%d/%d data=%d/%d/%d trace=%d\n",
					id, p.Hash(), e, r.Cycles,
					s.FetchHit, s.FetchMiss, s.FetchFirstMiss,
					s.DataHit, s.DataMiss, s.DataUnknown,
					wcet.TraceCycles(a.Img, a.HW, r.Trace))
			}
		}
	}
	checkGolden(t, "analyser_bounds.txt", b.String())
}
