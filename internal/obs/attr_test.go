package obs

import (
	"reflect"
	"testing"
)

// TestOpAttribution pins the attribution rule of the latency
// observatory: an interrupt-response sample belongs to the operation
// that was in progress when the IRQ *latched* (irq-raise), not the one
// running when it was serviced.
func TestOpAttribution(t *testing.T) {
	tr := NewTracer(64)

	tr.SetOp(OpRetype)
	tr.Emit(KindIRQRaise, 100, 0, 0) // latched mid-retype
	tr.SetOp(OpUser)
	tr.Emit(KindIRQService, 340, 240, 0) // serviced after the exit

	tr.SetOp(OpDelete)
	tr.Emit(KindIRQRaise, 1000, 0, 0)
	tr.Emit(KindIRQService, 1700, 700, 0)
	tr.SetOp(OpUser)

	var kinds [NumKinds]uint64
	var src [NumOps]Histogram
	tr.Totals(&kinds, &src)
	if src[OpDelete].Max() != 700 || src[OpRetype].Max() != 240 {
		t.Errorf("delete max %d, retype max %d, want 700 and 240", src[OpDelete].Max(), src[OpRetype].Max())
	}
	var total uint64
	for op := range src {
		if n := src[op].Count(); n > 0 && Op(op) != OpDelete && Op(op) != OpRetype {
			t.Errorf("source %v holds %d samples, want none", Op(op), n)
		}
		total += src[op].Count()
	}
	if lat := tr.Latencies(); total != lat.Count() {
		t.Errorf("per-source counts sum to %d, overall histogram has %d", total, lat.Count())
	}

	// Every retained event carries the op that was current at emission.
	evs := tr.Events()
	wantOps := []Op{OpRetype, OpUser, OpDelete, OpDelete}
	for i, e := range evs {
		if e.Op != wantOps[i] {
			t.Errorf("event %d (%v) op = %v, want %v", i, e.Kind, e.Op, wantOps[i])
		}
	}
}

// TestSampleHook verifies the live sample feed: every irq-service
// emission delivers one Sample, attributed and timestamped, and the
// hook runs outside the tracer lock so it may call back in — the
// flight-recorder pattern the soak sentinel uses.
func TestSampleHook(t *testing.T) {
	tr := NewTracer(8)
	var got []Sample
	var capture []Event
	tr.SetSampleHook(func(s Sample) {
		got = append(got, s)
		if s.Latency > 500 {
			// Re-entering the tracer from the hook must not deadlock.
			capture = tr.LastEvents(4)
		}
	})

	tr.SetOp(OpSend)
	tr.Emit(KindIRQRaise, 10, 0, 0)
	tr.Emit(KindIRQService, 110, 100, 0)
	tr.SetOp(OpRevoke)
	tr.Emit(KindIRQRaise, 200, 0, 0)
	tr.Emit(KindIRQService, 900, 700, 0)
	tr.SetOp(OpUser)

	want := []Sample{
		{TS: 110, Latency: 100, Source: OpSend},
		{TS: 900, Latency: 700, Source: OpRevoke},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("samples = %+v, want %+v", got, want)
	}
	if len(capture) != 4 || capture[len(capture)-1].Kind != KindIRQService {
		t.Errorf("flight capture = %+v", capture)
	}

	// Removing the hook stops delivery.
	tr.SetSampleHook(nil)
	tr.Emit(KindIRQRaise, 1000, 0, 0)
	tr.Emit(KindIRQService, 1100, 100, 0)
	if len(got) != 2 {
		t.Errorf("hook fired after removal: %d samples", len(got))
	}

	// Nil-tracer safety for the new entry points.
	var nilT *Tracer
	nilT.SetOp(OpSend)
	nilT.SetSampleHook(func(Sample) { t.Error("hook on nil tracer") })
	// Totals must clear tables that already hold data.
	kinds := [NumKinds]uint64{KindIRQService: 1}
	var src [NumOps]Histogram
	src[OpSend].Record(5)
	if em, dr := nilT.Totals(&kinds, &src); nilT.LastEvents(3) != nil || em != 0 || dr != 0 ||
		kinds != [NumKinds]uint64{} || src != [NumOps]Histogram{} {
		t.Error("nil tracer returned non-empty state")
	}
}

// TestLastEvents covers the flight-recorder window: most recent n in
// emission order, across ring wraparound.
func TestLastEvents(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(KindPreemptHit, uint64(i), 0, 0)
	}
	if got := tr.LastEvents(0); got != nil {
		t.Errorf("LastEvents(0) = %v", got)
	}
	got := tr.LastEvents(2)
	if len(got) != 2 || got[0].TS != 8 || got[1].TS != 9 {
		t.Errorf("LastEvents(2) = %+v", got)
	}
	// Asking for more than retained returns everything retained.
	all := tr.LastEvents(100)
	if len(all) != 4 || all[0].TS != 6 || all[3].TS != 9 {
		t.Errorf("LastEvents(100) = %+v", all)
	}
}
