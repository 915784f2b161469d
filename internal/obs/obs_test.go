package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindIRQRaise, 1, 2, 3)
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Count(KindIRQRaise) != 0 {
		t.Error("nil tracer reported non-zero state")
	}
	if tr.Events() != nil {
		t.Error("nil tracer returned events")
	}
	if h := tr.Latencies(); h.Count() != 0 {
		t.Error("nil tracer returned samples")
	}
	if got := tr.Summary(); got != "tracing disabled" {
		t.Errorf("nil Summary = %q", got)
	}
}

func TestEmitAndCounts(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(KindIRQRaise, 100, 0, 0)
	tr.Emit(KindIRQService, 150, 50, 0)
	tr.Emit(KindSchedPick, 160, 3, 0)
	if got := tr.Emitted(); got != 3 {
		t.Fatalf("Emitted = %d, want 3", got)
	}
	if got := tr.Count(KindIRQService); got != 1 {
		t.Errorf("Count(irq-service) = %d, want 1", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("Events len = %d, want 3", len(evs))
	}
	if evs[1].Kind != KindIRQService || evs[1].Arg1 != 50 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if lat := tr.Latencies(); lat.Count() != 1 || lat.Max() != 50 {
		t.Errorf("latency histogram n=%d max=%d, want 1/50", lat.Count(), lat.Max())
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := uint64(0); i < 10; i++ {
		tr.Emit(KindSchedPick, i, i, 0)
	}
	if got := tr.Emitted(); got != 10 {
		t.Fatalf("Emitted = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest-first: timestamps 6, 7, 8, 9.
	for i, e := range evs {
		if want := uint64(6 + i); e.TS != want {
			t.Errorf("event %d TS = %d, want %d (wraparound order broken)", i, e.TS, want)
		}
	}
	// Counts survive the wrap even though events were dropped.
	if got := tr.Count(KindSchedPick); got != 10 {
		t.Errorf("Count = %d, want 10", got)
	}
}

func TestRingCapacityFloor(t *testing.T) {
	tr := NewTracer(-5)
	tr.Emit(KindIRQRaise, 1, 0, 0)
	tr.Emit(KindIRQRaise, 2, 0, 0)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].TS != 2 {
		t.Errorf("capacity floor: got %+v, want single event TS=2", evs)
	}
}

// refRing is a fully preallocated ring with the tracer's retention
// rules, the reference for the tracer's ring that grows on demand.
type refRing struct {
	buf     []Event
	emitted uint64
	counts  [numKinds]uint64
}

func (r *refRing) emit(e Event) {
	r.buf[r.emitted%uint64(len(r.buf))] = e
	r.emitted++
	r.counts[e.Kind]++
}

func (r *refRing) events() []Event {
	n := min(r.emitted, uint64(len(r.buf)))
	start := uint64(0)
	if r.emitted > uint64(len(r.buf)) {
		start = r.emitted % uint64(len(r.buf))
	}
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(start+i)%uint64(len(r.buf))])
	}
	return out
}

func (r *refRing) dropped() uint64 {
	return r.emitted - min(r.emitted, uint64(len(r.buf)))
}

// TestRingGrowthMatchesPreallocated: a ring that grows on demand
// retains and reports exactly what a fully preallocated ring of the
// same capacity does, below, at and past its first allocation, its
// capacity and its wrap.
func TestRingGrowthMatchesPreallocated(t *testing.T) {
	cases := map[int][]int{
		1:    {0, 1, 2, 5},
		3:    {0, 1, 2, 3, 4, 7},
		4096: {0, 1, ringStart - 1, ringStart, ringStart + 1, 4095, 4096, 4097, 2*4096 + 5},
	}
	for capacity, counts := range cases {
		for _, n := range counts {
			tr := NewTracer(capacity)
			ref := &refRing{buf: make([]Event, capacity)}
			for i := 0; i < n; i++ {
				e := Event{TS: uint64(i), Arg1: uint64(3 * i), Arg2: uint64(n - i), Kind: Kind(i % int(numKinds))}
				tr.Emit(e.Kind, e.TS, e.Arg1, e.Arg2)
				ref.emit(e)
			}
			want := ref.events()
			if got := tr.Events(); !slices.Equal(got, want) {
				t.Errorf("cap %d, %d events: Events = %v, want %v", capacity, n, got, want)
			}
			for _, last := range []int{1, 2, capacity - 1, capacity, capacity + 1} {
				var wantLast []Event
				if last > 0 {
					wantLast = want[len(want)-min(last, len(want)):]
				}
				if got := tr.LastEvents(last); !slices.Equal(got, wantLast) {
					t.Errorf("cap %d, %d events: LastEvents(%d) = %v, want %v", capacity, n, last, got, wantLast)
				}
			}
			if got, want := tr.Dropped(), ref.dropped(); got != want {
				t.Errorf("cap %d, %d events: Dropped = %d, want %d", capacity, n, got, want)
			}
			for k := Kind(0); k < numKinds; k++ {
				if got, want := tr.Count(k), ref.counts[k]; got != want {
					t.Errorf("cap %d, %d events: Count(%v) = %d, want %d", capacity, n, k, got, want)
				}
			}
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := NewTracer(128)
	const workers, taggers, per = 8, 4, 1000
	var wg sync.WaitGroup
	// Taggers move the lock-free op tag while the workers emit.
	for w := 0; w < taggers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.SetOp(Op((w + i) % int(numOps)))
				if op := tr.Op(); op >= numOps {
					t.Errorf("Op() = %d, not a tag any tagger set", op)
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Kind(w%int(numKinds)), uint64(i), uint64(w), 0)
				if i%64 == 0 {
					tr.Events()
					tr.Summary()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Emitted(); got != workers*per {
		t.Fatalf("Emitted = %d, want %d", got, workers*per)
	}
	var total uint64
	for k := Kind(0); k < numKinds; k++ {
		total += tr.Count(k)
	}
	if total != workers*per {
		t.Fatalf("per-kind counts sum to %d, want %d", total, workers*per)
	}
	for _, e := range tr.Events() {
		if e.Op >= numOps {
			t.Fatalf("event stamped with op %d, not a tag any tagger set", e.Op)
		}
	}
	var kinds [NumKinds]uint64
	var src [NumOps]Histogram
	if em, dr := tr.Totals(&kinds, &src); em != tr.Emitted() || dr != tr.Dropped() {
		t.Fatalf("Totals reads %d emitted and %d dropped, accessors %d and %d", em, dr, tr.Emitted(), tr.Dropped())
	}
	var attributed uint64
	for k := range kinds {
		if kinds[k] != tr.Count(Kind(k)) {
			t.Fatalf("Totals counts %d %v events, Count %d", kinds[k], Kind(k), tr.Count(Kind(k)))
		}
	}
	for op := range src {
		attributed += src[op].Count()
	}
	if lat := tr.Latencies(); attributed != lat.Count() {
		t.Fatalf("per-source latencies hold %d samples, total histogram %d", attributed, lat.Count())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 10, 11},
		{1<<11 - 1, 11},
		{^uint64(0), 64},
	}
	for _, c := range cases {
		var h Histogram
		h.Record(c.v)
		if got := h.BucketCount(c.bucket); got != 1 {
			t.Errorf("Record(%d): bucket %d count = %d, want 1", c.v, c.bucket, got)
		}
		if ub := BucketUpperBound(c.bucket); ub < c.v {
			t.Errorf("BucketUpperBound(%d) = %d < recorded value %d", c.bucket, ub, c.v)
		}
	}
	if BucketUpperBound(0) != 0 {
		t.Error("BucketUpperBound(0) != 0")
	}
	if BucketUpperBound(64) != ^uint64(0) {
		t.Error("BucketUpperBound(64) != max uint64")
	}
	if BucketUpperBound(3) != 7 {
		t.Errorf("BucketUpperBound(3) = %d, want 7", BucketUpperBound(3))
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, v := range []uint64{10, 20, 30, 40, 1000} {
		h.Record(v)
	}
	if h.Count() != 5 || h.Min() != 10 || h.Max() != 1000 {
		t.Fatalf("n=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if got, want := h.Mean(), 220.0; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	// Conservative quantiles: the bound must never understate the true
	// quantile, and p100 must equal the exact max.
	if q := h.Quantile(0.5); q < 30 {
		t.Errorf("p50 = %d understates true median 30", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want exact max 1000", q)
	}
	// A single-sample histogram caps every quantile at the sample.
	var one Histogram
	one.Record(37)
	if q := one.Quantile(0.99); q != 37 {
		t.Errorf("single-sample p99 = %d, want 37", q)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(KindIRQRaise, 532, 0, 0)
	tr.Emit(KindIRQService, 1064, 532, 0)
	tr.Emit(KindSchedPick, 2128, IdleArg, 0)
	tr.Emit(KindCreateChunk, 3000, 1024, 2048)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, 532); err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	// Metadata + 4 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("trace has %d events, want 5", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" {
		t.Errorf("first event phase = %q, want metadata", doc.TraceEvents[0].Ph)
	}
	byName := map[string]ChromeEvent{}
	for _, e := range doc.TraceEvents {
		byName[e.Name] = e
	}
	svc, ok := byName["irq-service"]
	if !ok {
		t.Fatal("irq-service event missing")
	}
	if svc.Ph != "i" || svc.TS != 2.0 {
		t.Errorf("irq-service ph=%q ts=%v, want i/2.0 (1064 cycles at 532/µs)", svc.Ph, svc.TS)
	}
	if got := svc.Args["latency-cycles"]; got != float64(532) {
		t.Errorf("latency-cycles arg = %v, want 532", got)
	}
	if got := byName["sched-pick"].Args["prio"]; got != "idle" {
		t.Errorf("idle pick prio arg = %v, want \"idle\"", got)
	}
	cc := byName["create-chunk"]
	if cc.Args["chunk-bytes"] != float64(1024) || cc.Args["remaining-bytes"] != float64(2048) {
		t.Errorf("create-chunk args = %v", cc.Args)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.Add("x", 1)
	m.Stage("s")()
	s := m.Stats()
	if len(s.Counters) != 0 || len(s.Stages) != 0 {
		t.Errorf("nil metrics snapshot = %+v", s)
	}
}

func TestMetricsCountersAndStages(t *testing.T) {
	m := NewMetrics()
	m.Add("ilp.vars", 10)
	m.Add("ilp.vars", 5)
	stop := m.Stage("solve")
	time.Sleep(time.Millisecond)
	stop()
	m.Stage("solve")()

	s := m.Stats()
	if got := s.Counters["ilp.vars"]; got != 15 {
		t.Errorf("counter = %d, want 15", got)
	}
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(s.Stages))
	}
	if s.Stages[0].Duration < time.Millisecond {
		t.Errorf("first stage duration = %v, want >= 1ms", s.Stages[0].Duration)
	}
	text := s.String()
	if !strings.Contains(text, "ilp.vars") || !strings.Contains(text, "(2 calls)") {
		t.Errorf("snapshot text missing fields:\n%s", text)
	}
	// The snapshot must be isolated from later mutation.
	m.Add("ilp.vars", 100)
	if s.Counters["ilp.vars"] != 15 {
		t.Error("snapshot shares state with live registry")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Add("n", 1)
				m.Stage("s")()
				if i%100 == 0 {
					m.Stats()
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Stats().Counters["n"]; got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}

func TestStatsSnapshotChromeTrace(t *testing.T) {
	m := NewMetrics()
	m.Add("cfg.nodes", 42)
	m.Stage("classify")()
	var buf bytes.Buffer
	if err := m.Stats().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("pipeline trace is not valid JSON: %v", err)
	}
	var sawStage, sawCounters bool
	for _, e := range doc.TraceEvents {
		if e.Name == "classify" && e.Ph == "X" {
			sawStage = true
		}
		if e.Name == "counters" && e.Args["cfg.nodes"] == float64(42) {
			sawCounters = true
		}
	}
	if !sawStage || !sawCounters {
		t.Errorf("stage=%v counters=%v, want both", sawStage, sawCounters)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); strings.HasPrefix(s, "kind-") {
			t.Errorf("kind %d has no wire name", k)
		}
	}
	if got := Kind(200).String(); got != "kind-200" {
		t.Errorf("unknown kind = %q", got)
	}
}
