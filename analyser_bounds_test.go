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
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/sched"
	"verikern/internal/wcet"
)

// boundsSpace is the sub-lattice the golden covers on one backend:
// every value of the keys that change the analysed image or timing
// model, with up to two pinned L1 ways. The lists are the same on
// every backend; konfig.Enumerate drops what a backend cannot run.
func boundsSpace(archID string) konfig.Space {
	var kinds []string
	for _, k := range sched.Kinds() {
		kinds = append(kinds, k.String())
	}
	bools := []string{"false", "true"}
	return konfig.Space{Arch: archID, Vary: map[string][]string{
		"sched.policy":         kinds,
		"preempt.delete":       bools,
		"preempt.clear":        bools,
		"mem.tcm":              bools,
		"cache.l2.enabled":     bools,
		"cache.l2.lock-kernel": bools,
		"predictor.dynamic":    bools,
		"cache.l1.pinned-ways": {"0", "1", "2"},
	}}
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
		points, err := konfig.Enumerate(boundsSpace(id))
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
