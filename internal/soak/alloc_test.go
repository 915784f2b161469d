package soak

import "testing"

// maxVSpaceAllocs bounds the heap allocations of one OpVSpace in the
// steady state. The op makes three CreateObjects calls, each
// allocating its new object and the result slices around it, plus the
// page table's shadow array and the directory's first table and shadow
// leaves: 15 allocations in all today.
const maxVSpaceAllocs = 20

// TestSteadyStateAllocs guards the allocation-free kernel hot path:
// once a runner is warm, an IPC rendezvous and a reply-receive round
// allocate nothing on the host, interrupts included. Building and
// tearing down an address space must still allocate (the objects are
// new), but only a bounded amount.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r, err := NewRunner(modernCfg("allocs", false), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up every op kind so lazily grown state (sample rings,
	// latency slices, scheduler queues) reaches its working size.
	if err := r.Step(2000); err != nil {
		t.Fatal(err)
	}
	// A timer armed a varying phase ahead latches the IRQ at
	// different points of each op, so the runs also cover the
	// interrupt path (and, in OpVSpace, preempted and restarted
	// calls).
	phase := uint64(0)
	run := func(kind OpKind) float64 {
		return testing.AllocsPerRun(200, func() {
			phase = (phase + 337) % 3000
			r.ArmTimer(100 + phase)
			if err := r.RunOp(kind); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, kind := range []OpKind{OpIPC, OpReplyRecv} {
		before := r.Kernel().Stats().IRQsServiced
		got := run(kind)
		t.Logf("%v: %v allocs/op, %d IRQs serviced", kind, got, r.Kernel().Stats().IRQsServiced-before)
		if got != 0 {
			t.Errorf("%v: %v allocs per op after warm-up, want 0", kind, got)
		}
	}
	before := r.Kernel().Stats().Preemptions
	got := run(OpVSpace)
	t.Logf("%v: %v allocs/op, %d preemptions", OpVSpace, got, r.Kernel().Stats().Preemptions-before)
	if got == 0 || got > maxVSpaceAllocs {
		t.Errorf("%v: %v allocs per op after warm-up, want 1..%d", OpVSpace, got, maxVSpaceAllocs)
	}
}
