package verikern

import (
	"context"
	"strings"
	"testing"
)

// TestFleetReport drives the one fleet campaign report on both
// backends twice: plain, and with a worker kill and transport chaos in
// the same campaign. Every row must stay equivalent to its
// single-process soak and carry its lattice point's hash; the plain
// run must show no restarts and no faults, the combined run at least
// one restart per row and faults in total.
func TestFleetReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four fleet campaigns and their single-process soaks")
	}
	const seed, ops, workers = 42, 1500, 3
	archIDs := Architectures()
	for _, tc := range []struct {
		name      string
		kills     int
		chaosSeed uint64
	}{
		{"plain", 0, 0},
		{"kill+chaos", 1, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := FleetReport(context.Background(), seed, ops, workers, tc.kills, tc.chaosSeed, archIDs)
			if err != nil {
				t.Fatal(err)
			}
			if len(doc.Configs) != len(archIDs) {
				t.Fatalf("%d rows for %d backends", len(doc.Configs), len(archIDs))
			}
			faults := 0
			for i, r := range doc.Configs {
				campaign, err := fleetCampaign(archIDs[i], seed, ops, workers)
				if err != nil {
					t.Fatal(err)
				}
				if r.Config != campaign.ConfigKey {
					t.Errorf("%s: row stamped %q, campaign point hashes %s", r.Arch, r.Config, campaign.ConfigKey)
				}
				if !r.Equivalent {
					t.Errorf("%s: fleet merge diverges from the single-process soak", r.Arch)
				}
				if tc.kills > 0 && r.Restarts < 1 {
					t.Errorf("%s: %d restarts after %d kills", r.Arch, r.Restarts, tc.kills)
				}
				if tc.kills == 0 && tc.chaosSeed == 0 && (r.Restarts != 0 || r.FaultsInjected != 0) {
					t.Errorf("%s: plain campaign shows %d restarts, %d faults", r.Arch, r.Restarts, r.FaultsInjected)
				}
				faults += r.FaultsInjected
			}
			if tc.chaosSeed != 0 && faults == 0 {
				t.Error("transport chaos injected no faults on any backend")
			}
		})
	}
}

// TestFleetReportRefusesUnlandableKill: a chaos kill strikes only a
// worker whose first batch is not its last, so a kill budget on shards
// that each stream in one batch — 500-op shards against the default
// 512-op batch, or 150-op shards against the chaos profile's 151 — is
// an error naming both sizes, not a campaign that reports 0 restarts.
func TestFleetReportRefusesUnlandableKill(t *testing.T) {
	for _, tc := range []struct {
		ops       uint64
		chaosSeed uint64
		want      string
	}{
		{1500, 0, "a 500-op shard streams in one 512-op batch"},
		{450, 11, "a 150-op shard streams in one 151-op batch"},
	} {
		doc, err := FleetReport(context.Background(), 42, tc.ops, 3, 1, tc.chaosSeed, Architectures())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d ops, chaos seed %d: got %v (report %v), want an error saying %q", tc.ops, tc.chaosSeed, err, doc, tc.want)
		}
	}
}
