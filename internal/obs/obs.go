// Package obs is the observability layer of the simulator and the
// analysis pipeline: a cycle-timestamped event tracer feeding a fixed
// ring buffer, latency histograms, and a metrics registry for
// per-stage analysis timings and counters.
//
// The tracer is designed so that instrumentation can stay compiled
// into WCET-relevant code paths permanently: every Emit on a nil
// *Tracer is a single predictable branch and no allocation, so a
// kernel run with tracing disabled costs the same cycles as the
// uninstrumented seed (bench_test.go proves this). With tracing
// enabled, Emit takes a mutex and writes one fixed-size slot of the
// ring. The ring grows on demand up to its capacity: it starts at a
// few hundred events and reallocates once, to full capacity, when it
// first fills. A full ring makes zero allocations per event.
//
// Sinks render collected events as Chrome trace_event JSON (loadable
// in chrome://tracing or https://ui.perfetto.dev) or as a plain-text
// summary; see chrome.go.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind identifies an event type in the kernel/analysis taxonomy
// (documented in docs/observability.md).
type Kind uint8

// Event kinds.
const (
	// KindIRQRaise: an interrupt line was asserted. TS is the
	// assertion cycle.
	KindIRQRaise Kind = iota
	// KindIRQService: the kernel's interrupt path serviced the
	// pending interrupt. Arg1 is the response latency in cycles
	// (service cycle minus assertion cycle).
	KindIRQService
	// KindPreemptHit: a preemption point probed the interrupt line.
	KindPreemptHit
	// KindPreemptTaken: the probe found a pending interrupt and the
	// operation is unwinding to service it.
	KindPreemptTaken
	// KindSchedPick: the scheduler chose a thread. Arg1 is the
	// picked priority (IdleArg when idling), Arg2 the two-level
	// bitmap bucket (benno+bitmap) or the number of lazily dequeued
	// blocked threads (lazy).
	KindSchedPick
	// KindIPCAbort: one pending badged IPC was aborted during a
	// badge-revocation walk (§3.4). Arg1 is the badge.
	KindIPCAbort
	// KindEPDelete: one waiter was dequeued and restarted during
	// endpoint deletion (§3.3). Arg1 is the number of waiters still
	// queued.
	KindEPDelete
	// KindCreateChunk: one chunk of object memory was cleared
	// between preemption points (§3.5). Arg1 is the chunk size in
	// bytes, Arg2 the bytes still to clear.
	KindCreateChunk
	// KindReplay: the concrete machine finished replaying a trace.
	// Arg1 is the run's cycle cost, Arg2 the trace length in blocks.
	KindReplay

	numKinds
)

// IdleArg is the KindSchedPick Arg1 value meaning "no runnable thread;
// the idle thread was chosen".
const IdleArg = ^uint64(0)

// NumKinds is the number of defined event kinds: the length of a
// per-kind count table.
const NumKinds = int(numKinds)

// KindNamed returns the kind whose wire name (String) is name, and
// false for a name no kind has.
func KindNamed(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// String returns the event kind's wire name (also used as the Chrome
// trace event name).
func (k Kind) String() string {
	switch k {
	case KindIRQRaise:
		return "irq-raise"
	case KindIRQService:
		return "irq-service"
	case KindPreemptHit:
		return "preempt-hit"
	case KindPreemptTaken:
		return "preempt-taken"
	case KindSchedPick:
		return "sched-pick"
	case KindIPCAbort:
		return "ipc-abort"
	case KindEPDelete:
		return "ep-delete"
	case KindCreateChunk:
		return "create-chunk"
	case KindReplay:
		return "replay"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// Event is one traced occurrence. The struct is fixed-size and
// self-contained so a ring of Events never allocates per emission.
type Event struct {
	// TS is the cycle timestamp on the emitting clock.
	TS uint64
	// Arg1 and Arg2 carry kind-specific payload (see the Kind docs).
	Arg1, Arg2 uint64
	// Kind identifies the event type.
	Kind Kind
	// Op is the kernel operation in progress when the event was
	// emitted (OpUser outside any operation).
	Op Op
}

// Sample is one interrupt-response observation, delivered to the
// sample hook as it is recorded. Source is the operation that was in
// progress when the interrupt latched into the pending line — the
// attribution the latency observatory keys its per-source histograms
// and bound sentinel on.
type Sample struct {
	// TS is the cycle at which the interrupt was serviced.
	TS uint64
	// Latency is the response latency in cycles.
	Latency uint64
	// Source attributes the sample to a kernel operation.
	Source Op
}

// Tracer collects events into a fixed-capacity ring buffer. The zero
// value is not usable; construct with NewTracer. A nil *Tracer is a
// valid disabled tracer: every method is nil-safe and Emit costs one
// branch.
//
// Tracer is safe for concurrent use.
type Tracer struct {
	mu sync.Mutex
	// buf is the ring. It starts at ringStart events (or capacity,
	// if smaller) and grows once, to capacity, when it first fills.
	buf      []Event
	capacity int
	emitted  uint64 // total events ever emitted
	counts   [numKinds]uint64

	// op is the operation tag stamped on emitted events. It is
	// atomic so the kernel can bracket every system call without
	// taking the lock; Emit reads it under the lock, so an event's
	// tag and the raise latch agree.
	op atomic.Uint32
	// raiseOp is the tag latched by the most recent irq-raise, which
	// attributes the next irq-service sample.
	raiseOp Op
	// srcLat holds one latency histogram per operation tag: the one
	// record of every interrupt-response sample (KindIRQService's
	// Arg1). The array is preallocated so attribution never allocates.
	srcLat [numOps]Histogram
	// onSample, when set, receives every interrupt-response sample
	// as it is recorded (the bound sentinel's live feed). It is
	// invoked outside the tracer lock, so the hook may call back
	// into the tracer (e.g. LastEvents for a flight-recorder dump).
	onSample func(Sample)
}

// ringStart is the ring's first allocation, in events (24 KiB). A
// configuration-sweep point emits 3.5 to 13 events per operation
// (ARM1136 lattice, seed 42): 169–530 at 48 ops, which all fit, and
// 245–839 at 64 ops, where 16 of 100 points outgrow the start. At
// kzm-sim's default of 256 ops (944–3,230 events) every point
// outgrows it, as do long soaks, fleet workers and a probe at budget
// 160 (one at budget 16 does not). A tracer that outgrows the start
// pays one more allocation, to full capacity, and a copy of ringStart
// events. Its size keeps one soak-runner boot under TestBootAllocs's
// 64 KiB.
const ringStart = 768

// NewTracer returns a tracer whose ring holds the last `capacity`
// events. Capacities below 1 are raised to 1.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, 0, min(capacity, ringStart)), capacity: capacity}
}

// Emit records one event. On a nil tracer this is a single predictable
// branch — the disabled-tracer guarantee WCET-relevant call sites rely
// on. Never allocates.
func (t *Tracer) Emit(kind Kind, ts, arg1, arg2 uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	op := Op(t.op.Load())
	if len(t.buf) < t.capacity {
		if len(t.buf) == cap(t.buf) {
			full := make([]Event, len(t.buf), t.capacity)
			copy(full, t.buf)
			t.buf = full
		}
		t.buf = t.buf[:len(t.buf)+1]
	}
	t.buf[t.emitted%uint64(t.capacity)] = Event{TS: ts, Arg1: arg1, Arg2: arg2, Kind: kind, Op: op}
	t.emitted++
	if kind < numKinds {
		t.counts[kind]++
	}
	if kind == KindIRQRaise {
		// The operation in progress when the line latched owns the
		// latency of the service that follows.
		t.raiseOp = op
	}
	var fire func(Sample)
	var s Sample
	if kind == KindIRQService {
		t.srcLat[t.raiseOp].Record(arg1)
		s = Sample{TS: ts, Latency: arg1, Source: t.raiseOp}
		fire = t.onSample
	}
	t.mu.Unlock()
	if fire != nil {
		fire(s)
	}
}

// Op returns the current operation tag (OpUser on a nil tracer).
// Lock-free.
func (t *Tracer) Op() Op {
	if t == nil {
		return OpUser
	}
	return Op(t.op.Load())
}

// SetOp sets the operation tag stamped on subsequent events. The
// kernel brackets every system call, tick and idle window with it.
// Nil-safe: one predictable branch on a disabled tracer; lock-free
// otherwise.
func (t *Tracer) SetOp(op Op) {
	if t == nil {
		return
	}
	t.op.Store(uint32(op))
}

// SetSampleHook installs fn as the live interrupt-response sample
// consumer (nil to remove). The hook runs synchronously on the
// emitting goroutine but outside the tracer lock.
func (t *Tracer) SetSampleHook(fn func(Sample)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onSample = fn
	t.mu.Unlock()
}

// Emitted returns the total number of events ever emitted, including
// those overwritten by ring wraparound.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted
}

// Dropped returns how many events were overwritten by wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.emitted <= uint64(t.capacity) {
		return 0
	}
	return t.emitted - uint64(t.capacity)
}

// Count returns how many events of the given kind were emitted
// (including dropped ones).
func (t *Tracer) Count(kind Kind) uint64 {
	if t == nil || kind >= numKinds {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[kind]
}

// Events returns the retained events in emission order, oldest first.
// The returned slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

func (t *Tracer) eventsLocked() []Event {
	n := len(t.buf)
	out := make([]Event, n)
	if t.emitted <= uint64(t.capacity) {
		copy(out, t.buf[:n])
		return out
	}
	// Wrapped: the oldest retained event sits at the write cursor.
	start := int(t.emitted % uint64(t.capacity))
	copy(out, t.buf[start:])
	copy(out[n-start:], t.buf[:start])
	return out
}

// LastEvents returns (a copy of) the most recent n retained events in
// emission order — the flight-recorder capture a bound sentinel dumps
// on a violation. n <= 0 returns nil; n larger than the retained count
// returns everything retained.
func (t *Tracer) LastEvents(n int) []Event {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	all := t.eventsLocked()
	if n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}

// Totals copies the tracer's whole-run record under one lock, without
// allocating: per-kind event counts into kinds, per-source latency
// histograms into sources. It returns the emitted and dropped event
// counts. A nil tracer zeroes the tables.
func (t *Tracer) Totals(kinds *[NumKinds]uint64, sources *[NumOps]Histogram) (emitted, dropped uint64) {
	if t == nil {
		*kinds, *sources = [NumKinds]uint64{}, [NumOps]Histogram{}
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	*kinds, *sources = t.counts, t.srcLat
	if t.emitted > uint64(t.capacity) {
		dropped = t.emitted - uint64(t.capacity)
	}
	return t.emitted, dropped
}

// Latencies returns the all-sources interrupt-response latency
// histogram: the exact merge of the per-source histograms.
func (t *Tracer) Latencies() Histogram {
	if t == nil {
		return Histogram{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latenciesLocked()
}

func (t *Tracer) latenciesLocked() Histogram {
	var h Histogram
	for op := range t.srcLat {
		h.Merge(&t.srcLat[op])
	}
	return h
}

// Summary renders a one-line-per-kind plain-text digest: event counts
// and the latency distribution.
func (t *Tracer) Summary() string {
	if t == nil {
		return "tracing disabled"
	}
	t.mu.Lock()
	counts := t.counts
	emitted := t.emitted
	lat := t.latenciesLocked()
	t.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "%d events", emitted)
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, " (%d dropped by ring wrap)", d)
	}
	var kinds []Kind
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return counts[kinds[i]] > counts[kinds[j]] })
	for _, k := range kinds {
		fmt.Fprintf(&b, "\n  %-14s %d", k, counts[k])
	}
	if lat.Count() > 0 {
		fmt.Fprintf(&b, "\nirq response: n=%d p50<=%d p99<=%d max=%d cycles",
			lat.Count(), lat.Quantile(0.50), lat.Quantile(0.99), lat.Max())
	}
	return b.String()
}
