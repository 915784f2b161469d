package soak

import (
	"runtime"
	"testing"
)

// maxVSpaceAllocs bounds the heap allocations of one OpVSpace in the
// steady state. The op makes three CreateObjects calls, each
// allocating its new object and the result slices around it, plus the
// page table's shadow array and the directory's first table and shadow
// leaves: 15 allocations in all today.
const maxVSpaceAllocs = 20

// steadyOps is the length of the long warm IPC run whose mallocs are
// counted directly.
const steadyOps = 20_000

// TestSteadyStateAllocs guards the allocation-free kernel hot path:
// once a runner is warm, an IPC rendezvous and a reply-receive round
// allocate nothing on the host, interrupts included, not even
// amortised over a long run. Building and
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
	// Warm up every op kind so lazily grown state (the tracer's event
	// ring, scheduler queues) reaches its working size.
	if err := r.Step(2000); err != nil {
		t.Fatal(err)
	}
	// A timer armed a varying phase ahead latches the IRQ at
	// different points of each op, so the runs also cover the
	// interrupt path (and, in OpVSpace, preempted and restarted
	// calls).
	phase := uint64(0)
	op := func(kind OpKind) {
		phase = (phase + 337) % 3000
		r.ArmTimer(100 + phase)
		if err := r.RunOp(kind); err != nil {
			t.Fatal(err)
		}
	}
	run := func(kind OpKind) float64 {
		return testing.AllocsPerRun(200, func() { op(kind) })
	}
	for _, kind := range []OpKind{OpIPC, OpReplyRecv} {
		before := r.Kernel().Stats().IRQsServiced
		got := run(kind)
		t.Logf("%v: %v allocs/op, %d IRQs serviced", kind, got, r.Kernel().Stats().IRQsServiced-before)
		if got != 0 {
			t.Errorf("%v: %v allocs per op after warm-up, want 0", kind, got)
		}
	}
	// AllocsPerRun rounds amortised growth (a slice appended per
	// interrupt, reallocated every few thousand) down to zero, so a
	// long run counts mallocs directly.
	var m0, m1 runtime.MemStats
	irqs := r.Kernel().Stats().IRQsServiced
	runtime.ReadMemStats(&m0)
	for i := 0; i < steadyOps; i++ {
		op([2]OpKind{OpIPC, OpReplyRecv}[i%2])
	}
	runtime.ReadMemStats(&m1)
	irqs = r.Kernel().Stats().IRQsServiced - irqs
	t.Logf("%d IPC/reply-receive ops: %d mallocs (%d bytes), %d IRQs serviced",
		steadyOps, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, irqs)
	if m1.Mallocs != m0.Mallocs {
		t.Errorf("%d warm IPC/reply-receive ops made %d allocations, want 0", steadyOps, m1.Mallocs-m0.Mallocs)
	}
	if irqs == 0 {
		t.Error("the long run serviced no interrupts")
	}

	before := r.Kernel().Stats().Preemptions
	got := run(OpVSpace)
	t.Logf("%v: %v allocs/op, %d preemptions", OpVSpace, got, r.Kernel().Stats().Preemptions-before)
	if got == 0 || got > maxVSpaceAllocs {
		t.Errorf("%v: %v allocs per op after warm-up, want 1..%d", OpVSpace, got, maxVSpaceAllocs)
	}
}

// Bounds on one modern-configuration NewRunner: the kernel boot, its
// threads and objects, and the tracer. The root CNode's slot leaves
// and the tracer's ring are allocated as they are used, so a boot
// costs tens of KiB rather than a dense radix-12 slot array and a
// full event ring.
const (
	maxBootBytes  = 64 << 10
	maxBootAllocs = 72
)

// TestBootAllocs guards the allocation cost of booting a runner, which
// a configuration sweep pays once per lattice point.
func TestBootAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg := modernCfg("boot", false)
	boot := func() {
		if _, err := NewRunner(cfg, 0); err != nil {
			t.Fatal(err)
		}
	}
	boot() // one-time package state
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		boot()
	}
	runtime.ReadMemStats(&m1)
	allocs := (m1.Mallocs - m0.Mallocs) / runs
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("NewRunner: %d allocations, %d bytes", allocs, bytes)
	if bytes > maxBootBytes {
		t.Errorf("NewRunner allocated %d bytes, want at most %d", bytes, maxBootBytes)
	}
	if allocs > maxBootAllocs {
		t.Errorf("NewRunner made %d allocations, want at most %d", allocs, maxBootAllocs)
	}
}
