package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden byte-compares got against testdata/<name>, rewriting the
// file under -update (same pattern as the experiment goldens).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// observatoryFixture builds a small deterministic tracer used by the
// snapshot and exposition goldens.
func observatoryFixture() *Tracer {
	tr := NewTracer(16)
	tr.SetOp(OpSend)
	tr.Emit(KindIRQRaise, 100, 0, 0)
	tr.Emit(KindPreemptHit, 150, 0, 0)
	tr.Emit(KindIRQService, 420, 320, 0)
	tr.SetOp(OpRetype)
	tr.Emit(KindCreateChunk, 500, 1024, 3072)
	tr.Emit(KindIRQRaise, 600, 0, 0)
	tr.Emit(KindIRQService, 7400, 6800, 0)
	tr.SetOp(OpUser)
	tr.Emit(KindIRQRaise, 9000, 0, 0)
	tr.Emit(KindIRQService, 9700, 700, 0)

	return tr
}

func fixtureSnapshot() *Snapshot {
	tr := observatoryFixture()
	s := NewSnapshot()
	s.Label = "benno+preempt+pinned"
	s.Seed = 42
	s.Workers = 1
	s.Ops = 3
	s.SimCycles = 9700
	s.AddTracer(tr)
	s.Bound = &BoundStatus{Cycles: 115147, MarginPercent: 10, Violations: 0, NearMax: 1, Captures: 1}
	return s
}

// TestSnapshotJSONGolden pins the /snapshot.json document byte-for-byte
// for a fixed fixture — the byte-stability the acceptance criteria and
// the bench artifacts rely on.
func TestSnapshotJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureSnapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", buf.Bytes())
}

// TestSnapshotPrometheusGolden pins the /metrics exposition likewise.
func TestSnapshotPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())
}

// TestSnapshotAggregation checks the cross-tracer fold: two workers'
// histograms merge exactly, per-source digests cover every attributed
// source and sum to the overall count.
func TestSnapshotAggregation(t *testing.T) {
	t1 := NewTracer(8)
	t1.SetOp(OpSend)
	t1.Emit(KindIRQRaise, 1, 0, 0)
	t1.Emit(KindIRQService, 101, 100, 0)
	t1.SetOp(OpUser)
	t2 := NewTracer(8)
	t2.SetOp(OpDelete)
	t2.Emit(KindIRQRaise, 5, 0, 0)
	t2.Emit(KindIRQService, 905, 900, 0)
	t2.SetOp(OpUser)

	s := NewSnapshot()
	s.AddTracer(t1)
	s.AddTracer(t2)
	if s.IRQ.Count != 2 || s.IRQ.Max != 900 || s.IRQ.Min != 100 {
		t.Errorf("aggregate digest %+v", s.IRQ)
	}
	if len(s.Sources) != 2 {
		t.Fatalf("sources = %+v", s.Sources)
	}
	if s.Sources[0].Source != OpSend.String() || s.Sources[1].Source != OpDelete.String() {
		t.Errorf("source order: %q, %q", s.Sources[0].Source, s.Sources[1].Source)
	}
	var n uint64
	for _, d := range s.Sources {
		n += d.Count
	}
	if n != s.IRQ.Count {
		t.Errorf("per-source counts sum to %d, aggregate %d", n, s.IRQ.Count)
	}
	if s.EventCounts["irq-service"] != 2 || s.EventsEmitted != 4 {
		t.Errorf("event fold: %+v emitted=%d", s.EventCounts, s.EventsEmitted)
	}
}

// TestAddSourceHistogramFeedsAggregate: a streamed per-source delta
// lands in its source and in the all-sources histogram, so the sources
// sum to the aggregate without a second record; an out-of-range op is
// ignored.
func TestAddSourceHistogramFeedsAggregate(t *testing.T) {
	var send, del Histogram
	send.Record(100)
	send.Record(300)
	del.Record(900)
	s := NewSnapshot()
	s.AddSourceHistogram(OpSend, &send)
	s.AddSourceHistogram(OpDelete, &del)
	s.AddSourceHistogram(numOps, &del)
	if s.IRQ.Count != 3 || s.IRQ.Min != 100 || s.IRQ.Max != 900 || s.IRQ.Mean != 1300.0/3 {
		t.Errorf("aggregate digest %+v", s.IRQ)
	}
	if len(s.Sources) != 2 || s.Sources[0].Count != 2 || s.Sources[1].Count != 1 {
		t.Errorf("sources %+v", s.Sources)
	}
}

func TestPromEscape(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := promEscape(in); got != want {
		t.Errorf("promEscape(%q) = %q, want %q", in, got, want)
	}
}
