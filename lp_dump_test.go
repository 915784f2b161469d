package verikern

// A golden of the integer linear program each entry hands the solver
// (§5.2), as the LP dump wcet -lp prints: per backend's default point
// and entry, the ILP's size and a digest of Result.LPText. The dump
// holds the objective as well as the rows, so a change to how the
// edge costs are priced or how a row is encoded shows up here even
// when the bound does not move.
//
// Regenerate after an intentional encoding change with:
//
//	go test -run TestLPDumpPinned -update .

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/wcet"
)

// TestLPDumpPinned analyses every entry with KeepLP at each backend's
// default point through one shared cache and compares each dump's
// digest with testdata/goldens/lp_dump.txt. Each dump must also equal
// the one an analysis without a cache prints, and so must the dump of
// the same rows under a second hardware configuration (the dynamic
// predictor, or else the L2, where the backend has one), which the
// shared cache serves from the rows the first analysis built.
func TestLPDumpPinned(t *testing.T) {
	c := wcet.NewCache()
	var b strings.Builder
	for _, id := range arch.BackendIDs() {
		p, err := konfig.DefaultPoint(id)
		if err != nil {
			t.Fatal(err)
		}
		points := []konfig.Point{p}
		for _, kv := range [][2]string{{"predictor.dynamic", "true"}, {"cache.l2.enabled", "true"}} {
			if q, err := p.Set(kv[0], kv[1]); err == nil && q.Check() == nil {
				points = append(points, q)
				break
			}
		}
		for _, e := range EntryPoints() {
			for i, q := range points {
				got := analyzeLP(t, q, c, string(e))
				want := analyzeLP(t, q, nil, string(e))
				if got.LPText != want.LPText {
					t.Errorf("%s %s %s: the cached LP dump differs from the uncached one", id, q.Hash(), e)
				}
				if i > 0 {
					continue
				}
				fmt.Fprintf(&b, "%s %s %s vars=%d constraints=%d cycles=%d bytes=%d lp=%x\n",
					id, q.Hash(), e, got.LPVars, got.LPConstraints, got.Cycles,
					len(got.LPText), sha256.Sum256([]byte(got.LPText)))
			}
		}
	}
	checkGolden(t, "lp_dump.txt", b.String())
}

// analyzeLP analyses entry at p with KeepLP, through c when it is set.
func analyzeLP(t *testing.T, p konfig.Point, c *wcet.Cache, entry string) *wcet.Result {
	t.Helper()
	a, err := p.Analyzer(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.KeepLP = true
	r, err := a.Analyze(entry)
	if err != nil {
		t.Fatalf("%s %s: %v", p.Hash(), entry, err)
	}
	if r.LPText == "" {
		t.Fatalf("%s %s: KeepLP analysis without LP text", p.Hash(), entry)
	}
	return r
}
