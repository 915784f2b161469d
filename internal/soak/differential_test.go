package soak

import (
	"testing"

	"verikern/internal/kernel"
	"verikern/internal/sched"
)

// TestPinnedUnpinnedSameRetirement is the differential satellite: L1
// way-pinning is a bound-side (and measurement-machine) concern only —
// the functional kernel must retire the exact same event sequence for
// the same seeded program whether or not the configuration selects the
// pinned bound. Cycle timestamps are allowed to differ (and bound
// margins certainly do), so events compare without TS.
func TestPinnedUnpinnedSameRetirement(t *testing.T) {
	const ops = 300
	boot := func(pinned bool) *Runner {
		r, err := NewRunner(Config{
			Label:  "diff",
			Seed:   99,
			Kernel: kernel.Config{Scheduler: sched.Benno, PreemptionPoints: true},
			Pinned: pinned,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	up, p := boot(false), boot(true)

	// The runners advance in lockstep one op at a time, and each op's
	// events are compared before the fixed-size ring can overwrite them.
	var retired int
	for op := 0; op < ops; op++ {
		before := up.Tracer().Emitted()
		if err := up.Step(1); err != nil {
			t.Fatal(err)
		}
		if err := p.Step(1); err != nil {
			t.Fatal(err)
		}
		n := up.Tracer().Emitted() - before
		if pn := p.Tracer().Emitted() - before; pn != n {
			t.Fatalf("op %d: event counts diverged: unpinned %d, pinned %d", op, n, pn)
		}
		if n > ringCap {
			t.Fatalf("op %d emitted %d events, more than the %d-event ring holds", op, n, ringCap)
		}
		ue, pe := up.Tracer().LastEvents(int(n)), p.Tracer().LastEvents(int(n))
		for i := range ue {
			a, b := ue[i], pe[i]
			if a.Kind != b.Kind || a.Op != b.Op || a.Arg1 != b.Arg1 || a.Arg2 != b.Arg2 {
				t.Fatalf("op %d event %d diverged: unpinned {%v %v %d %d}, pinned {%v %v %d %d}",
					op, i, a.Kind, a.Op, a.Arg1, a.Arg2, b.Kind, b.Op, b.Arg1, b.Arg2)
			}
		}
		retired += len(ue)
	}
	if retired == 0 {
		t.Fatal("no events retired")
	}
	if up.Ops() != p.Ops() {
		t.Fatalf("op counts diverged: unpinned %d, pinned %d", up.Ops(), p.Ops())
	}
	// The interrupt-response samples themselves retire identically
	// too — pinning changes what bound they are judged against, not
	// what the kernel does.
	ul, pl := up.Kernel().Stats().IRQsServiced, p.Kernel().Stats().IRQsServiced
	if ul != pl {
		t.Fatalf("sample counts diverged: unpinned %d, pinned %d", ul, pl)
	}
}
