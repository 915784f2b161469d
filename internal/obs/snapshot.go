package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the exposition layer of the latency observatory: a
// Snapshot aggregates tracer histograms and per-source latency digests
// into a stable JSON document and a Prometheus-style text format,
// served by `kzm-sim -serve` and written by `kzm-sim -bench-out`. Both
// renderings are deterministic for a fixed input: struct fields are
// emitted in declaration order, maps with sorted keys, so golden tests
// can byte-compare the output.

// LatencyDigest is the serialisable distribution digest of one latency
// histogram. Quantiles carry the histogram's conservative semantics:
// P50/P90/P99 are upper bounds that never understate the true
// quantile, capped at the exact observed maximum.
type LatencyDigest struct {
	// Source is the operation tag the digest is attributed to
	// (empty for the all-sources aggregate).
	Source string `json:"source,omitempty"`
	Count  uint64 `json:"count"`
	Min    uint64 `json:"min"`
	Max    uint64 `json:"max"`
	// Mean is the exact average in cycles.
	Mean float64 `json:"mean"`
	P50  uint64  `json:"p50"`
	P90  uint64  `json:"p90"`
	P99  uint64  `json:"p99"`
	P999 uint64  `json:"p999"`
}

// quantileGauges pairs the digest quantiles with their Prometheus
// `quantile` label values, in exposition order.
var quantileGauges = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// DigestHistogram summarises a histogram into a LatencyDigest.
func DigestHistogram(source string, h *Histogram) LatencyDigest {
	return LatencyDigest{
		Source: source,
		Count:  h.Count(),
		Min:    h.Min(),
		Max:    h.Max(),
		Mean:   h.Mean(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
	}
}

// BoundStatus reports the bound sentinel's standing verdict: the
// computed WCET bound the live samples are checked against, and how
// often it was breached or approached.
type BoundStatus struct {
	// Cycles is the computed WCET bound (syscall + interrupt path).
	Cycles uint64 `json:"cycles"`
	// MarginPercent is the near-bound capture margin.
	MarginPercent float64 `json:"margin_percent"`
	// Violations counts samples that exceeded the bound.
	Violations uint64 `json:"violations"`
	// NearMax counts new observed maxima within the margin.
	NearMax uint64 `json:"near_max"`
	// Captures is the number of flight-recorder captures taken.
	Captures uint64 `json:"captures"`
}

// Snapshot is a point-in-time, serialisable view of the observability
// state: event counts, the overall and per-source interrupt-latency
// digests and the sentinel's bound status. Latency enters only by
// source (AddTracer, AddTotals, AddSourceHistogram), and each source
// merges into the all-sources histogram too, so the per-source counts
// always sum to the aggregate. Construct with NewSnapshot, fold state in with the
// Add methods, set the identity fields, then render with WriteJSON or
// WritePrometheus.
type Snapshot struct {
	// Label identifies the run configuration (e.g.
	// "benno+preempt+pinned").
	Label string `json:"label,omitempty"`
	// Arch names the hardware backend the run simulated (e.g.
	// "arm1136", "cva6rt").
	Arch string `json:"arch,omitempty"`
	// Config is the konfig lattice-point hash of the full
	// kernel+hardware configuration the run executed (empty for ad-hoc
	// configs). Like Arch, it is identity, not content: the fleet layer
	// refuses to merge observations whose Config differs, and strips it
	// from equivalence digests.
	Config string `json:"config,omitempty"`
	// Seed is the workload seed the run is reproducible from.
	Seed uint64 `json:"seed"`
	// Workers is the number of parallel kernel instances aggregated.
	Workers int `json:"workers,omitempty"`
	// Ops is the number of workload operations driven.
	Ops uint64 `json:"ops,omitempty"`
	// SimCycles is the simulated cycle time consumed (summed across
	// workers).
	SimCycles uint64 `json:"sim_cycles,omitempty"`
	// EventsEmitted / EventsDropped total the tracer rings.
	EventsEmitted uint64 `json:"events_emitted"`
	EventsDropped uint64 `json:"events_dropped"`
	// EventCounts maps event kind to count (whole-run, wrap-proof).
	EventCounts map[string]uint64 `json:"event_counts,omitempty"`
	// IRQ is the all-sources interrupt-response digest.
	IRQ LatencyDigest `json:"irq_latency"`
	// Sources lists the per-source digests in operation-tag order.
	Sources []LatencyDigest `json:"sources,omitempty"`
	// Bound is the sentinel status, when a sentinel was attached.
	Bound *BoundStatus `json:"bound,omitempty"`

	// Raw histograms backing the digests, kept for the Prometheus
	// bucket exposition; not serialised to JSON.
	irqHist Histogram
	srcHist [numOps]Histogram
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{EventCounts: make(map[string]uint64)}
}

// AddTracer folds a tracer's whole-run totals into the snapshot. Call
// once per worker tracer; histograms merge exactly.
func (s *Snapshot) AddTracer(t *Tracer) {
	var kinds [NumKinds]uint64
	var sources [NumOps]Histogram
	emitted, dropped := t.Totals(&kinds, &sources)
	s.AddTotals(emitted, dropped, &kinds, &sources)
}

// AddTotals folds whole-run totals into the snapshot: the emitted and
// dropped event counts, the per-kind counts (kinds never seen stay out
// of EventCounts) and the per-source latency histograms. AddTracer
// reads them from one tracer; soak.Tally renders a merged record
// through it.
func (s *Snapshot) AddTotals(emitted, dropped uint64, kinds *[NumKinds]uint64, sources *[NumOps]Histogram) {
	s.EventsEmitted += emitted
	s.EventsDropped += dropped
	for k, c := range kinds {
		if c > 0 {
			s.EventCounts[Kind(k).String()] += c
		}
	}
	for op := range sources {
		if sources[op].Count() > 0 {
			s.AddSourceHistogram(Op(op), &sources[op])
		}
	}
}

// AddSourceHistogram merges h into the per-source histogram of op and
// into the all-sources histogram. AddTotals calls it per non-empty
// source. An op outside the tag range is ignored.
func (s *Snapshot) AddSourceHistogram(op Op, h *Histogram) {
	if op >= numOps {
		return
	}
	s.irqHist.Merge(h)
	s.srcHist[op].Merge(h)
	s.refreshDigests()
}

// refreshDigests recomputes the derived digest fields from the raw
// histograms.
func (s *Snapshot) refreshDigests() {
	s.IRQ = DigestHistogram("", &s.irqHist)
	s.Sources = s.Sources[:0]
	for op := Op(0); op < numOps; op++ {
		if s.srcHist[op].Count() > 0 {
			s.Sources = append(s.Sources, DigestHistogram(op.String(), &s.srcHist[op]))
		}
	}
}

// WriteJSON renders the snapshot as an indented, byte-stable JSON
// document (terminated by a newline).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// promEscape escapes a Prometheus label value.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// writeHistProm writes one histogram as a Prometheus histogram series
// with the given source label.
func writeHistProm(w io.Writer, source string, h *Histogram) error {
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		c := h.BucketCount(i)
		if c == 0 {
			continue
		}
		cum += c
		if _, err := fmt.Fprintf(w, "verikern_irq_latency_cycles_bucket{source=%q,le=%q} %d\n",
			promEscape(source), fmt.Sprint(BucketUpperBound(i)), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"verikern_irq_latency_cycles_bucket{source=%q,le=\"+Inf\"} %d\nverikern_irq_latency_cycles_sum{source=%q} %d\nverikern_irq_latency_cycles_count{source=%q} %d\n",
		promEscape(source), h.Count(), promEscape(source), h.Sum(), promEscape(source), h.Count())
	return err
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). Latency histograms become
// histogram series labelled by source; event counts and sentinel
// status become counters and gauges. Output is byte-stable for a fixed
// snapshot.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	s.refreshDigests()
	fmt.Fprintf(w, "# HELP verikern_irq_latency_cycles Interrupt-response latency in simulated cycles, by kernel operation in progress at IRQ latch.\n")
	fmt.Fprintf(w, "# TYPE verikern_irq_latency_cycles histogram\n")
	if err := writeHistProm(w, "all", &s.irqHist); err != nil {
		return err
	}
	for op := Op(0); op < numOps; op++ {
		if s.srcHist[op].Count() == 0 {
			continue
		}
		if err := writeHistProm(w, op.String(), &s.srcHist[op]); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "# HELP verikern_irq_latency_quantile_cycles Conservative latency quantile upper bounds (summary-style; never understate the true quantile).\n")
	fmt.Fprintf(w, "# TYPE verikern_irq_latency_quantile_cycles gauge\n")
	writeQuantiles := func(source string, h *Histogram) {
		for _, g := range quantileGauges {
			fmt.Fprintf(w, "verikern_irq_latency_quantile_cycles{source=%q,quantile=%q} %d\n",
				promEscape(source), g.label, h.Quantile(g.q))
		}
	}
	writeQuantiles("all", &s.irqHist)
	for op := Op(0); op < numOps; op++ {
		if s.srcHist[op].Count() == 0 {
			continue
		}
		writeQuantiles(op.String(), &s.srcHist[op])
	}
	fmt.Fprintf(w, "# HELP verikern_irq_latency_max_cycles Worst observed interrupt-response latency in cycles.\n")
	fmt.Fprintf(w, "# TYPE verikern_irq_latency_max_cycles gauge\n")
	fmt.Fprintf(w, "verikern_irq_latency_max_cycles{source=\"all\"} %d\n", s.irqHist.Max())
	for op := Op(0); op < numOps; op++ {
		if s.srcHist[op].Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "verikern_irq_latency_max_cycles{source=%q} %d\n", promEscape(op.String()), s.srcHist[op].Max())
	}

	fmt.Fprintf(w, "# HELP verikern_events_total Trace events emitted, by kind.\n")
	fmt.Fprintf(w, "# TYPE verikern_events_total counter\n")
	kinds := make([]string, 0, len(s.EventCounts))
	for k := range s.EventCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "verikern_events_total{kind=%q} %d\n", promEscape(k), s.EventCounts[k])
	}
	fmt.Fprintf(w, "# TYPE verikern_events_dropped_total counter\nverikern_events_dropped_total %d\n", s.EventsDropped)

	if s.Ops > 0 {
		fmt.Fprintf(w, "# TYPE verikern_soak_ops_total counter\nverikern_soak_ops_total %d\n", s.Ops)
	}
	if s.SimCycles > 0 {
		fmt.Fprintf(w, "# TYPE verikern_sim_cycles_total counter\nverikern_sim_cycles_total %d\n", s.SimCycles)
	}
	if s.Bound != nil {
		fmt.Fprintf(w, "# HELP verikern_wcet_bound_cycles Computed WCET bound the sentinel checks live samples against.\n")
		fmt.Fprintf(w, "# TYPE verikern_wcet_bound_cycles gauge\nverikern_wcet_bound_cycles %d\n", s.Bound.Cycles)
		fmt.Fprintf(w, "# TYPE verikern_wcet_bound_violations_total counter\nverikern_wcet_bound_violations_total %d\n", s.Bound.Violations)
		fmt.Fprintf(w, "# TYPE verikern_flight_recorder_captures_total counter\nverikern_flight_recorder_captures_total %d\n", s.Bound.Captures)
	}
	return nil
}
