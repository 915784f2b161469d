package kernel

import (
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/obs"
)

// traceWorkload drives one adversarial pass — endpoint deletion with
// queued waiters under a pending timer, badge revocation, chunked
// object creation, and a scheduling pass — with tracing attached.
func traceWorkload(t *testing.T, k *Kernel, tr *obs.Tracer) {
	t.Helper()
	adv, err := k.CreateThread("adv", 100)
	if err != nil {
		t.Fatal(err)
	}
	k.StartThread(adv)

	eps, err := k.CreateObjects(adv, kobj.TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	badged, err := k.MintBadgedCap(adv, eps[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		w, err := k.CreateThread("w", 50)
		if err != nil {
			t.Fatal(err)
		}
		k.StartThread(w)
		if err := k.Send(w, badged, 1, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	k.SetTimer(k.Now() + 2_000)
	if err := k.RevokeBadge(adv, eps[0], 9); err != nil {
		t.Fatal(err)
	}
	// The abort walk drained every badge-9 waiter; refill the queue
	// through the unbadged cap so deletion has waiters to restart.
	for i := 0; i < 16; i++ {
		w, err := k.CreateThread("d", 50)
		if err != nil {
			t.Fatal(err)
		}
		k.StartThread(w)
		if err := k.Send(w, eps[0], 1, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	k.SetTimer(k.Now() + 2_000)
	if err := k.DeleteCap(adv, eps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateObjects(adv, kobj.TypeFrame, 14, 1); err != nil {
		t.Fatal(err)
	}
	k.Yield()
}

func TestTracerKernelEvents(t *testing.T) {
	k, err := New(Modern())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 14)
	k.SetTracer(tr)
	if k.Tracer() != tr {
		t.Fatal("Tracer() does not return the attached tracer")
	}
	traceWorkload(t, k, tr)

	for _, kind := range []obs.Kind{
		obs.KindIRQRaise, obs.KindIRQService, obs.KindPreemptHit,
		obs.KindPreemptTaken, obs.KindSchedPick, obs.KindIPCAbort,
		obs.KindEPDelete, obs.KindCreateChunk,
	} {
		if tr.Count(kind) == 0 {
			t.Errorf("workload emitted no %v events", kind)
		}
	}
	// The abort walk removed each of the 32 badged waiters exactly
	// once; the deletion walk restarted each of the 16 refilled ones.
	if got := tr.Count(obs.KindIPCAbort); got != 32 {
		t.Errorf("ipc-abort count = %d, want 32", got)
	}
	if got := tr.Count(obs.KindEPDelete); got != 16 {
		t.Errorf("ep-delete count = %d, want 16", got)
	}
	// Every timestamp comes from the one kernel clock, so none may lie
	// in the future. (Emission order is not strictly monotone: a timer
	// IRQ latched at a preemption point is stamped at its assertion
	// time, which precedes the probe that noticed it.)
	now := k.Now()
	for i, e := range tr.Events() {
		if e.TS > now {
			t.Fatalf("event %d (%v) TS %d is past the clock %d", i, e.Kind, e.TS, now)
		}
	}
	// The latency histogram's exact max must agree with the kernel's
	// own bookkeeping.
	lat := tr.Latencies()
	if lat.Count() == 0 {
		t.Fatal("no interrupt latencies recorded")
	}
	if lat.Max() != k.MaxLatency() {
		t.Errorf("histogram max %d != kernel MaxLatency %d", lat.Max(), k.MaxLatency())
	}
	if n := k.Stats().IRQsServiced; n != lat.Count() {
		t.Errorf("histogram n=%d != kernel latency count %d", lat.Count(), n)
	}
	if err := k.InvariantFailure(); err != nil {
		t.Fatal(err)
	}
}

// TestTracerOpAttribution checks the per-source dimension the latency
// observatory builds on: every event carries the operation tag of the
// system call that emitted it, and interrupt-response samples are
// attributed to the operation in progress when the timer latched.
func TestTracerOpAttribution(t *testing.T) {
	k, err := New(Modern())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 14)
	k.SetTracer(tr)

	// A compact workload with a short timer fuse armed immediately
	// before each long operation, so the line latches at one of the
	// operation's own preemption probes.
	adv, err := k.CreateThread("adv", 100)
	if err != nil {
		t.Fatal(err)
	}
	k.StartThread(adv)
	eps, err := k.CreateObjects(adv, kobj.TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	badged, err := k.MintBadgedCap(adv, eps[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	queueWaiters := func(capAddr uint32, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			w, err := k.CreateThread("w", 50)
			if err != nil {
				t.Fatal(err)
			}
			k.StartThread(w)
			if err := k.Send(w, capAddr, 1, nil, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	queueWaiters(badged, 8)
	k.SetTimer(k.Now() + 300)
	if err := k.RevokeBadge(adv, eps[0], 9); err != nil {
		t.Fatal(err)
	}
	queueWaiters(eps[0], 8)
	k.SetTimer(k.Now() + 300)
	if err := k.DeleteCap(adv, eps[0]); err != nil {
		t.Fatal(err)
	}
	k.SetTimer(k.Now() + 300)
	if _, err := k.CreateObjects(adv, kobj.TypeFrame, 14, 1); err != nil {
		t.Fatal(err)
	}

	// Kind→op pairing is structural: the abort walk only runs inside
	// badge revocation, the waiter-restart walk inside deletion, the
	// chunked clear inside retype.
	wantOp := map[obs.Kind]obs.Op{
		obs.KindIPCAbort:    obs.OpBadgeRevoke,
		obs.KindEPDelete:    obs.OpDelete,
		obs.KindCreateChunk: obs.OpRetype,
	}
	for _, e := range tr.Events() {
		if want, ok := wantOp[e.Kind]; ok && e.Op != want {
			t.Errorf("%v event tagged %v, want %v", e.Kind, e.Op, want)
		}
	}

	// Each timer was armed just before its walk, so all three long
	// operations must own attributed samples; counts across all sources
	// must cover every recorded latency.
	var kinds [obs.NumKinds]uint64
	var srcs [obs.NumOps]obs.Histogram
	tr.Totals(&kinds, &srcs)
	var total uint64
	for op := range srcs {
		total += srcs[op].Count()
	}
	for _, want := range []obs.Op{obs.OpBadgeRevoke, obs.OpDelete, obs.OpRetype} {
		if srcs[want].Count() == 0 {
			t.Errorf("no interrupt-response sample attributed to %v", want)
		}
	}
	if lat := tr.Latencies(); total != lat.Count() {
		t.Errorf("per-source counts sum to %d, overall %d", total, lat.Count())
	}
}

// TestTracerDisabledIdentical proves the disabled tracer changes
// nothing: a traced and an untraced run of the same workload consume
// identical simulated cycles and produce identical latencies, because
// Emit never touches the clock.
func TestTracerDisabledIdentical(t *testing.T) {
	run := func(trace bool) (uint64, uint64) {
		k, err := New(Modern())
		if err != nil {
			t.Fatal(err)
		}
		if trace {
			k.SetTracer(obs.NewTracer(1 << 14))
		}
		traceWorkload(t, k, k.Tracer())
		return k.Now(), k.MaxLatency()
	}
	cyclesOff, latOff := run(false)
	cyclesOn, latOn := run(true)
	if cyclesOff != cyclesOn {
		t.Errorf("tracing changed simulated time: %d vs %d cycles", cyclesOff, cyclesOn)
	}
	if latOff != latOn {
		t.Errorf("tracing changed latencies: %d vs %d", latOff, latOn)
	}
}

// TestSchedPickArgs checks the design-specific Arg2 payloads: the lazy
// scheduler reports lazily dequeued blocked threads, benno+bitmap the
// two-level bucket.
func TestSchedPickArgs(t *testing.T) {
	cfg := Original() // lazy scheduling
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(256)
	k.SetTracer(tr)
	a, _ := k.CreateThread("a", 10)
	k.StartThread(a)
	b, _ := k.CreateThread("b", 20)
	k.StartThread(b)
	k.Yield()
	if tr.Count(obs.KindSchedPick) == 0 {
		t.Fatal("lazy scheduler emitted no sched-pick")
	}
	var pick *obs.Event
	for _, e := range tr.Events() {
		if e.Kind == obs.KindSchedPick {
			ev := e
			pick = &ev
			break
		}
	}
	if pick.Arg1 != 20 {
		t.Errorf("picked prio = %d, want 20 (highest runnable)", pick.Arg1)
	}

	// Modern kernel: bitmap bucket is prio>>5.
	k2, err := New(Modern())
	if err != nil {
		t.Fatal(err)
	}
	tr2 := obs.NewTracer(256)
	k2.SetTracer(tr2)
	c, _ := k2.CreateThread("c", 200)
	k2.StartThread(c)
	d, _ := k2.CreateThread("d", 100)
	k2.StartThread(d)
	k2.Yield()
	var found bool
	for _, e := range tr2.Events() {
		if e.Kind == obs.KindSchedPick && e.Arg1 == 200 {
			found = true
			if e.Arg2 != 200>>5 {
				t.Errorf("bitmap bucket = %d, want %d", e.Arg2, 200>>5)
			}
		}
	}
	if !found {
		t.Error("no sched-pick for prio 200")
	}
}
