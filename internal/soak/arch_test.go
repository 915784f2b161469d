package soak

import (
	"context"
	"reflect"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kernel"
)

// TestSoakArchDistinctStreams: two soaks differing only in backend must
// draw different op streams (the ArchSeed mix), not the same workload
// replayed under a relabelled bound — otherwise a two-backend soak
// matrix would measure one workload twice.
func TestSoakArchDistinctStreams(t *testing.T) {
	run := func(archID string) *Report {
		t.Helper()
		kcfg := kernel.Modern()
		kcfg.CheckInvariants = false
		rep, err := Run(context.Background(), Config{
			Label:  "arch-stream",
			Arch:   archID,
			Seed:   7,
			Ops:    400,
			Kernel: kcfg,
		})
		if err != nil {
			t.Fatalf("soak %q: %v", archID, err)
		}
		return rep
	}
	armRep := run("")
	cvaRep := run(arch.CVA6RTID)

	if armRep.Snapshot.Arch != arch.ARM1136ID {
		t.Errorf("default soak reported arch %q, want %q", armRep.Snapshot.Arch, arch.ARM1136ID)
	}
	if cvaRep.Snapshot.Arch != arch.CVA6RTID {
		t.Errorf("cva6rt soak reported arch %q, want %q", cvaRep.Snapshot.Arch, arch.CVA6RTID)
	}
	// Same seed, same op count — but the per-worker streams must
	// differ. Event-kind counts are a whole-run digest of the stream.
	if reflect.DeepEqual(armRep.Snapshot.EventCounts, cvaRep.Snapshot.EventCounts) &&
		armRep.Snapshot.SimCycles == cvaRep.Snapshot.SimCycles {
		t.Fatalf("arm1136 and cva6rt soaks replayed an identical op stream (events %v, %d sim cycles)",
			armRep.Snapshot.EventCounts, armRep.Snapshot.SimCycles)
	}
	// And the arm1136 run must be byte-identical to a pre-backend one:
	// the zero-arch config re-run reproduces itself exactly.
	again := run(arch.ARM1136ID)
	if !reflect.DeepEqual(armRep.Snapshot.EventCounts, again.Snapshot.EventCounts) ||
		armRep.Snapshot.IRQ.Max != again.Snapshot.IRQ.Max || armRep.Snapshot.SimCycles != again.Snapshot.SimCycles {
		t.Fatal(`soak with Arch:"" and Arch:"arm1136" disagree; the default backend must be a pure alias`)
	}
}

// TestSoakRejectsUnknownArch: a typo'd -arch must fail loudly before
// any analysis or simulation runs.
func TestSoakRejectsUnknownArch(t *testing.T) {
	kcfg := kernel.Modern()
	kcfg.CheckInvariants = false
	_, err := Run(context.Background(), Config{Label: "x", Arch: "m68k", Seed: 1, Ops: 1, Kernel: kcfg})
	if err == nil {
		t.Fatal("soak with unknown arch did not fail")
	}
}
