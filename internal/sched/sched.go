// Package sched implements the three scheduler designs the paper
// compares (§3.1–§3.2):
//
//   - Lazy scheduling (Fig. 2): blocked threads linger on the run queue
//     and are dequeued in bulk by the scheduler — O(1) IPC but a
//     pathological, effectively unbounded worst case.
//   - Benno scheduling (Fig. 3): only runnable threads are queued; an
//     unblocked thread that can run immediately is switched to directly
//     without queueing, and queue consistency is re-established at
//     preemption time. Same best case, O(1) worst case.
//   - Benno + bitmap: a two-level bitmap over the 256 priorities,
//     searched with two loads and two CLZ instructions, removing the
//     priority scan loop entirely.
//
// Scheduler operations return their cost in simulated cycles so the
// kernel can account interrupt-latency contributions; the costs are
// per-step constants matching the relative magnitudes of the paper's
// measured paths.
package sched

import (
	"fmt"
	"math/bits"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/obs"
)

// Kind selects a scheduler design.
type Kind int

// Scheduler designs.
const (
	// Lazy is the original lazy scheduler (Fig. 2).
	Lazy Kind = iota
	// Benno is the direct-switch scheduler without bitmaps (Fig. 3).
	Benno
	// BennoBitmap adds the two-level CLZ bitmap (§3.2).
	BennoBitmap
)

// String returns the design name.
func (k Kind) String() string {
	switch k {
	case Lazy:
		return "lazy"
	case Benno:
		return "benno"
	case BennoBitmap:
		return "benno+bitmap"
	default:
		return "unknown"
	}
}

// Kinds returns every scheduler design, in definition order — the
// domain of the konfig "sched.policy" key.
func Kinds() []Kind { return []Kind{Lazy, Benno, BennoBitmap} }

// ParseKind resolves a design name as printed by Kind.String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown scheduler design %q", s)
}

// Operation costs in simulated cycles. The absolute values are
// calibrated so queue operations sit in the tens of cycles, matching
// the scale of the paper's measured kernel paths.
const (
	// CostQueueOp is one enqueue or dequeue (pointer updates).
	CostQueueOp = 15
	// CostScanPrio is testing one priority level in the Fig. 3
	// scan loop.
	CostScanPrio = 8
	// CostDequeueBlocked is the lazy scheduler's dequeue of one
	// blocked thread found on the queue (Fig. 2's schedDequeue).
	CostDequeueBlocked = 25
	// CostBitmapLookup is the bitmap search: two loads and two CLZ
	// instructions (§3.2).
	CostBitmapLookup = 10
	// CostBitmapUpdate maintains the bitmap on queue transitions.
	CostBitmapUpdate = 6
)

// Queue is one priority's run queue: an intrusive doubly-linked list
// of TCBs.
type Queue struct {
	Head, Tail *kobj.TCB
}

// RunQueues is the full scheduler state: one queue per priority plus
// the optional two-level bitmap.
type RunQueues struct {
	Q [kobj.NumPrios]Queue
	// Top is the first-level bitmap: bit b set means bucket b (32
	// priorities) has queued threads. Level2[b] has one bit per
	// priority within the bucket (§3.2).
	Top    uint8
	Level2 [8]uint32
	// useBitmap controls bitmap maintenance.
	useBitmap bool
}

// enqueue appends t to its priority's queue.
func (r *RunQueues) enqueue(t *kobj.TCB) {
	q := &r.Q[t.Prio]
	t.SchedPrev = q.Tail
	t.SchedNext = nil
	if q.Tail != nil {
		q.Tail.SchedNext = t
	} else {
		q.Head = t
	}
	q.Tail = t
	t.InRunQueue = true
	if r.useBitmap {
		r.Level2[t.Prio>>5] |= 1 << (t.Prio & 31)
		r.Top |= 1 << (t.Prio >> 5)
	}
}

// dequeue removes t from its priority's queue.
func (r *RunQueues) dequeue(t *kobj.TCB) {
	q := &r.Q[t.Prio]
	if t.SchedPrev != nil {
		t.SchedPrev.SchedNext = t.SchedNext
	} else {
		q.Head = t.SchedNext
	}
	if t.SchedNext != nil {
		t.SchedNext.SchedPrev = t.SchedPrev
	} else {
		q.Tail = t.SchedPrev
	}
	t.SchedNext, t.SchedPrev = nil, nil
	t.InRunQueue = false
	if r.useBitmap && q.Head == nil {
		r.Level2[t.Prio>>5] &^= 1 << (t.Prio & 31)
		if r.Level2[t.Prio>>5] == 0 {
			r.Top &^= 1 << (t.Prio >> 5)
		}
	}
}

// highestBitmap finds the highest priority with a queued thread using
// the two-level CLZ search; -1 if none.
func (r *RunQueues) highestBitmap() int {
	if r.Top == 0 {
		return -1
	}
	bucket := 7 - bits.LeadingZeros8(r.Top)
	word := r.Level2[bucket]
	prio := 31 - bits.LeadingZeros32(word)
	return bucket<<5 | prio
}

// Scheduler is the interface the kernel drives. Every method returns
// the simulated cycles it consumed.
type Scheduler interface {
	Kind() Kind
	// Enqueue makes a runnable thread eligible (no-op if queued).
	Enqueue(t *kobj.TCB) uint64
	// OnBlock is called when a thread ceases to be runnable.
	OnBlock(t *kobj.TCB) uint64
	// DirectSwitch asks whether an unblocked thread should be
	// switched to immediately instead of queued (Benno's trick);
	// cur may be nil.
	DirectSwitch(t, cur *kobj.TCB) (bool, uint64)
	// ChooseThread picks the next thread to run (nil = idle) and
	// removes it from the queue.
	ChooseThread() (*kobj.TCB, uint64)
	// AtPreemption re-establishes queue consistency for the
	// preempted current thread.
	AtPreemption(cur *kobj.TCB) uint64
	// Queues exposes the state for invariant checking.
	Queues() *RunQueues
	// SetTrace hands the scheduler the kernel's tracer and cycle
	// clock, for its pick events; a nil tracer disables them.
	SetTrace(t *obs.Tracer, clk *ktime.Clock)
}

// trace is the embedded emission state shared by the scheduler
// implementations. A zero trace (nil tracer) emits nothing, at the
// cost of one predictable branch per pick.
type trace struct {
	tracer *obs.Tracer
	clock  *ktime.Clock
}

func (tr *trace) SetTrace(t *obs.Tracer, clk *ktime.Clock) {
	tr.tracer = t
	tr.clock = clk
}

// pick emits a KindSchedPick event for the chosen thread. arg2 is the
// design-specific detail: the two-level bitmap bucket for
// benno+bitmap, or the number of lazily dequeued blocked threads for
// the lazy design.
func (tr *trace) pick(t *kobj.TCB, arg2 uint64) {
	if tr.tracer == nil {
		return
	}
	prio := obs.IdleArg
	if t != nil {
		prio = uint64(t.Prio)
	}
	tr.tracer.Emit(obs.KindSchedPick, tr.clock.Now(), prio, arg2)
}

// New constructs a scheduler of the given kind.
func New(kind Kind) Scheduler {
	switch kind {
	case Lazy:
		return &lazyScheduler{}
	case Benno:
		return &bennoScheduler{}
	case BennoBitmap:
		s := &bennoScheduler{bitmap: true}
		s.rq.useBitmap = true
		return s
	default:
		panic(fmt.Sprintf("sched: unknown kind %d", kind))
	}
}

// --- Lazy scheduling (Fig. 2) ---

type lazyScheduler struct {
	rq RunQueues
	trace
}

func (s *lazyScheduler) Kind() Kind         { return Lazy }
func (s *lazyScheduler) Queues() *RunQueues { return &s.rq }

func (s *lazyScheduler) Enqueue(t *kobj.TCB) uint64 {
	if t.InRunQueue {
		return 0
	}
	s.rq.enqueue(t)
	return CostQueueOp
}

// OnBlock is lazy scheduling's defining move: the blocking thread stays
// in the run queue, to be lazily dequeued by a later ChooseThread.
func (s *lazyScheduler) OnBlock(t *kobj.TCB) uint64 { return 0 }

// DirectSwitch: the lazy design also switched directly on IPC, leaving
// the blocked partner queued.
func (s *lazyScheduler) DirectSwitch(t, cur *kobj.TCB) (bool, uint64) {
	if cur == nil || t.Prio >= cur.Prio {
		return true, 0
	}
	return false, 0
}

// ChooseThread implements Fig. 2: walk priorities from the top; dequeue
// every blocked thread encountered. The worst case dequeues every
// thread in the system.
func (s *lazyScheduler) ChooseThread() (*kobj.TCB, uint64) {
	var cycles, lazyDequeues uint64
	for prio := kobj.NumPrios - 1; prio >= 0; prio-- {
		cycles += CostScanPrio
		for t := s.rq.Q[prio].Head; t != nil; {
			next := t.SchedNext
			if t.State.Runnable() {
				s.rq.dequeue(t)
				s.pick(t, lazyDequeues)
				return t, cycles + CostQueueOp
			}
			// Lazily dequeue the blocked thread.
			s.rq.dequeue(t)
			cycles += CostDequeueBlocked
			lazyDequeues++
			t = next
		}
	}
	s.pick(nil, lazyDequeues)
	return nil, cycles
}

func (s *lazyScheduler) AtPreemption(cur *kobj.TCB) uint64 {
	if cur != nil && cur.State.Runnable() {
		return s.Enqueue(cur)
	}
	return 0
}

// --- Benno scheduling (Fig. 3), optionally with bitmaps (§3.2) ---

type bennoScheduler struct {
	rq     RunQueues
	bitmap bool
	trace
}

func (s *bennoScheduler) Kind() Kind {
	if s.bitmap {
		return BennoBitmap
	}
	return Benno
}
func (s *bennoScheduler) Queues() *RunQueues { return &s.rq }

func (s *bennoScheduler) Enqueue(t *kobj.TCB) uint64 {
	if t.InRunQueue {
		return 0
	}
	s.rq.enqueue(t)
	if s.bitmap {
		return CostQueueOp + CostBitmapUpdate
	}
	return CostQueueOp
}

// OnBlock maintains the Benno invariant: a thread that ceases to be
// runnable must leave the run queue immediately.
func (s *bennoScheduler) OnBlock(t *kobj.TCB) uint64 {
	if !t.InRunQueue {
		return 0
	}
	s.rq.dequeue(t)
	if s.bitmap {
		return CostQueueOp + CostBitmapUpdate
	}
	return CostQueueOp
}

// DirectSwitch: an unblocked thread that can execute immediately is
// switched to without entering the run queue (it may block again very
// soon).
func (s *bennoScheduler) DirectSwitch(t, cur *kobj.TCB) (bool, uint64) {
	if cur == nil || t.Prio >= cur.Prio {
		return true, 0
	}
	return false, 0
}

// ChooseThread: Fig. 3 without bitmaps (head of the highest non-empty
// priority), or the two-load/two-CLZ bitmap search with them.
func (s *bennoScheduler) ChooseThread() (*kobj.TCB, uint64) {
	if s.bitmap {
		p := s.rq.highestBitmap()
		if p < 0 {
			s.pick(nil, 0)
			return nil, CostBitmapLookup
		}
		t := s.rq.Q[p].Head
		s.rq.dequeue(t)
		s.pick(t, uint64(p>>5))
		return t, CostBitmapLookup + CostQueueOp + CostBitmapUpdate
	}
	var cycles uint64
	for prio := kobj.NumPrios - 1; prio >= 0; prio-- {
		cycles += CostScanPrio
		if t := s.rq.Q[prio].Head; t != nil {
			s.rq.dequeue(t)
			s.pick(t, uint64(prio>>5))
			return t, cycles + CostQueueOp
		}
	}
	s.pick(nil, 0)
	return nil, cycles
}

// AtPreemption: the single lazily handled thread — the preempted
// current one — is entered into the run queue if still runnable,
// re-establishing the invariant that all runnable threads are queued or
// running.
func (s *bennoScheduler) AtPreemption(cur *kobj.TCB) uint64 {
	if cur != nil && cur.State.Runnable() {
		return s.Enqueue(cur)
	}
	return 0
}
