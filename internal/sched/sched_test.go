package sched

import (
	"math/rand"
	"testing"

	"verikern/internal/kobj"
)

func mkTCB(prio uint8, state kobj.ThreadState) *kobj.TCB {
	return &kobj.TCB{Prio: prio, State: state}
}

func allKinds() []Kind { return []Kind{Lazy, Benno, BennoBitmap} }

func TestChoosePicksHighestPriority(t *testing.T) {
	for _, k := range allKinds() {
		s := New(k)
		lo := mkTCB(10, kobj.ThreadRunnable)
		hi := mkTCB(200, kobj.ThreadRunnable)
		mid := mkTCB(100, kobj.ThreadRunnable)
		s.Enqueue(lo)
		s.Enqueue(hi)
		s.Enqueue(mid)
		got, _ := s.ChooseThread()
		if got != hi {
			t.Errorf("%v: chose prio %d, want 200", k, got.Prio)
		}
		got, _ = s.ChooseThread()
		if got != mid {
			t.Errorf("%v: second choice prio %d, want 100", k, got.Prio)
		}
	}
}

func TestChooseFIFOWithinPriority(t *testing.T) {
	for _, k := range allKinds() {
		s := New(k)
		a := mkTCB(50, kobj.ThreadRunnable)
		b := mkTCB(50, kobj.ThreadRunnable)
		s.Enqueue(a)
		s.Enqueue(b)
		if got, _ := s.ChooseThread(); got != a {
			t.Errorf("%v: FIFO violated", k)
		}
		if got, _ := s.ChooseThread(); got != b {
			t.Errorf("%v: FIFO violated for second thread", k)
		}
	}
}

func TestChooseIdleWhenEmpty(t *testing.T) {
	for _, k := range allKinds() {
		s := New(k)
		if got, _ := s.ChooseThread(); got != nil {
			t.Errorf("%v: chose %v from empty queues", k, got)
		}
	}
}

func TestEnqueueIdempotent(t *testing.T) {
	for _, k := range allKinds() {
		s := New(k)
		a := mkTCB(5, kobj.ThreadRunnable)
		s.Enqueue(a)
		if c := s.Enqueue(a); c != 0 {
			t.Errorf("%v: double enqueue cost %d, want 0", k, c)
		}
		got, _ := s.ChooseThread()
		if got != a {
			t.Fatalf("%v: wrong thread", k)
		}
		if got2, _ := s.ChooseThread(); got2 != nil {
			t.Errorf("%v: double enqueue duplicated the thread", k)
		}
	}
}

func TestLazyLeavesBlockedThreadsQueued(t *testing.T) {
	s := New(Lazy)
	a := mkTCB(50, kobj.ThreadRunnable)
	s.Enqueue(a)
	a.State = kobj.ThreadBlockedOnSend
	s.OnBlock(a)
	if !a.InRunQueue {
		t.Fatal("lazy scheduler dequeued a blocking thread eagerly")
	}
	// ChooseThread must lazily clean it up.
	got, cycles := s.ChooseThread()
	if got != nil {
		t.Errorf("chose blocked thread %v", got)
	}
	if a.InRunQueue {
		t.Error("blocked thread still queued after scheduling pass")
	}
	if cycles < CostDequeueBlocked {
		t.Errorf("lazy cleanup cost %d, expected at least one blocked dequeue", cycles)
	}
}

func TestLazyPathologicalCost(t *testing.T) {
	// The §3.1 pathological case: many blocked threads on one
	// priority make the scheduling pass arbitrarily expensive.
	s := New(Lazy)
	const n = 1000
	for i := 0; i < n; i++ {
		tcb := mkTCB(128, kobj.ThreadRunnable)
		s.Enqueue(tcb)
		tcb.State = kobj.ThreadBlockedOnSend
		s.OnBlock(tcb)
	}
	_, cycles := s.ChooseThread()
	if cycles < n*CostDequeueBlocked {
		t.Errorf("pathological pass cost %d, want at least %d", cycles, n*CostDequeueBlocked)
	}

	// Benno never pays this: blocked threads were never left queued.
	b := New(Benno)
	for i := 0; i < n; i++ {
		tcb := mkTCB(128, kobj.ThreadRunnable)
		b.Enqueue(tcb)
		tcb.State = kobj.ThreadBlockedOnSend
		b.OnBlock(tcb)
	}
	_, bCycles := b.ChooseThread()
	maxBenno := uint64(kobj.NumPrios*CostScanPrio + CostQueueOp)
	if bCycles > maxBenno {
		t.Errorf("benno pass cost %d, want <= %d", bCycles, maxBenno)
	}
}

func TestBennoInvariantQueueOnlyRunnable(t *testing.T) {
	for _, k := range []Kind{Benno, BennoBitmap} {
		s := New(k)
		a := mkTCB(50, kobj.ThreadRunnable)
		s.Enqueue(a)
		a.State = kobj.ThreadBlockedOnRecv
		s.OnBlock(a)
		if a.InRunQueue {
			t.Errorf("%v: blocked thread remains queued (Benno invariant violated)", k)
		}
		// Every queued thread must be runnable.
		rq := s.Queues()
		for p := 0; p < kobj.NumPrios; p++ {
			for th := rq.Q[p].Head; th != nil; th = th.SchedNext {
				if !th.State.Runnable() {
					t.Errorf("%v: non-runnable thread on queue", k)
				}
			}
		}
	}
}

func TestBitmapConstantLookup(t *testing.T) {
	s := New(BennoBitmap)
	// With only a low-priority thread, the bitmap lookup is still
	// constant cost — no scan over 255 empty priorities.
	a := mkTCB(3, kobj.ThreadRunnable)
	s.Enqueue(a)
	got, cycles := s.ChooseThread()
	if got != a {
		t.Fatal("wrong thread")
	}
	want := uint64(CostBitmapLookup + CostQueueOp + CostBitmapUpdate)
	if cycles != want {
		t.Errorf("bitmap choose cost %d, want %d", cycles, want)
	}
	// The plain Benno scan pays per priority level.
	b := New(Benno)
	b.Enqueue(mkTCB(3, kobj.ThreadRunnable))
	_, scanCycles := b.ChooseThread()
	if scanCycles <= cycles {
		t.Errorf("scan cost %d not above bitmap cost %d", scanCycles, cycles)
	}
}

func TestBitmapReflectsQueues(t *testing.T) {
	s := New(BennoBitmap)
	rq := s.Queues()
	threads := []*kobj.TCB{mkTCB(0, kobj.ThreadRunnable), mkTCB(31, kobj.ThreadRunnable),
		mkTCB(32, kobj.ThreadRunnable), mkTCB(255, kobj.ThreadRunnable)}
	for _, th := range threads {
		s.Enqueue(th)
	}
	checkBitmap(t, rq)
	for range threads {
		s.ChooseThread()
		checkBitmap(t, rq)
	}
	if rq.Top != 0 {
		t.Error("bitmap non-empty after draining all queues")
	}
}

// checkBitmap verifies the §3.2 invariant: the bitmap precisely
// reflects the run-queue state.
func checkBitmap(t *testing.T, rq *RunQueues) {
	t.Helper()
	for p := 0; p < kobj.NumPrios; p++ {
		bit := rq.Level2[p>>5]&(1<<(p&31)) != 0
		if bit != (rq.Q[p].Head != nil) {
			t.Fatalf("bitmap bit for prio %d = %v, queue empty = %v", p, bit, rq.Q[p].Head == nil)
		}
	}
	for b := 0; b < 8; b++ {
		topBit := rq.Top&(1<<b) != 0
		if topBit != (rq.Level2[b] != 0) {
			t.Fatalf("top bitmap bucket %d inconsistent", b)
		}
	}
}

func TestDirectSwitch(t *testing.T) {
	for _, k := range allKinds() {
		s := New(k)
		cur := mkTCB(100, kobj.ThreadRunning)
		hi := mkTCB(150, kobj.ThreadRunnable)
		lo := mkTCB(50, kobj.ThreadRunnable)
		if sw, _ := s.DirectSwitch(hi, cur); !sw {
			t.Errorf("%v: no direct switch to higher prio", k)
		}
		if sw, _ := s.DirectSwitch(lo, cur); sw {
			t.Errorf("%v: direct switch to lower prio", k)
		}
		if sw, _ := s.DirectSwitch(lo, nil); !sw {
			t.Errorf("%v: no direct switch with idle current", k)
		}
	}
}

func TestAtPreemptionRequeuesCurrent(t *testing.T) {
	for _, k := range allKinds() {
		s := New(k)
		cur := mkTCB(90, kobj.ThreadRunning)
		s.AtPreemption(cur)
		if !cur.InRunQueue {
			t.Errorf("%v: preempted runnable thread not requeued", k)
		}
		// A blocked current thread must not be queued.
		blocked := mkTCB(90, kobj.ThreadBlockedOnSend)
		s.AtPreemption(blocked)
		if blocked.InRunQueue {
			t.Errorf("%v: blocked thread queued at preemption", k)
		}
		s.AtPreemption(nil) // must not panic
	}
}

// Property: under random operation sequences, Benno and BennoBitmap
// always agree on the chosen thread, and queues stay well-formed.
func TestPropertyBennoBitmapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		a := New(Benno)
		b := New(BennoBitmap)
		var ta, tb []*kobj.TCB
		for op := 0; op < 120; op++ {
			switch rng.Intn(3) {
			case 0: // enqueue a new runnable thread
				p := uint8(rng.Intn(256))
				x := mkTCB(p, kobj.ThreadRunnable)
				y := mkTCB(p, kobj.ThreadRunnable)
				a.Enqueue(x)
				b.Enqueue(y)
				ta = append(ta, x)
				tb = append(tb, y)
			case 1: // block a random queued thread
				if len(ta) == 0 {
					continue
				}
				i := rng.Intn(len(ta))
				ta[i].State = kobj.ThreadBlockedOnSend
				tb[i].State = kobj.ThreadBlockedOnSend
				a.OnBlock(ta[i])
				b.OnBlock(tb[i])
				ta = append(ta[:i], ta[i+1:]...)
				tb = append(tb[:i], tb[i+1:]...)
			case 2: // schedule
				x, _ := a.ChooseThread()
				y, _ := b.ChooseThread()
				switch {
				case x == nil && y == nil:
				case x == nil || y == nil:
					t.Fatalf("trial %d: one scheduler idle, other not", trial)
				case x.Prio != y.Prio:
					t.Fatalf("trial %d: chose prios %d vs %d", trial, x.Prio, y.Prio)
				default:
					// Remove from tracking.
					for i, th := range ta {
						if th == x {
							ta = append(ta[:i], ta[i+1:]...)
							break
						}
					}
					for i, th := range tb {
						if th == y {
							tb = append(tb[:i], tb[i+1:]...)
							break
						}
					}
				}
			}
			checkWellFormed(t, a.Queues())
			checkWellFormed(t, b.Queues())
			checkBitmap(t, b.Queues())
		}
	}
}

// checkWellFormed validates the doubly-linked queue invariants of §2.2:
// no cycles, correct back-pointers.
func checkWellFormed(t *testing.T, rq *RunQueues) {
	t.Helper()
	for p := 0; p < kobj.NumPrios; p++ {
		var prev *kobj.TCB
		seen := 0
		for th := rq.Q[p].Head; th != nil; th = th.SchedNext {
			if th.SchedPrev != prev {
				t.Fatalf("prio %d: bad back-pointer", p)
			}
			if int(th.Prio) != p {
				t.Fatalf("prio %d: queued thread has prio %d", p, th.Prio)
			}
			prev = th
			seen++
			if seen > 100000 {
				t.Fatalf("prio %d: cycle in queue", p)
			}
		}
		if rq.Q[p].Tail != prev {
			t.Fatalf("prio %d: tail mismatch", p)
		}
	}
}

// Property: lazy and Benno scheduling are decision-equivalent — they
// always pick the same next thread under identical operation sequences
// (§3.1: the redesign changes the worst-case cost, not the scheduling
// policy).
func TestPropertyLazyBennoDecisionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		lazy := New(Lazy)
		benno := New(Benno)
		var tl, tb []*kobj.TCB
		for op := 0; op < 150; op++ {
			switch rng.Intn(3) {
			case 0:
				p := uint8(rng.Intn(256))
				x := mkTCB(p, kobj.ThreadRunnable)
				y := mkTCB(p, kobj.ThreadRunnable)
				lazy.Enqueue(x)
				benno.Enqueue(y)
				tl = append(tl, x)
				tb = append(tb, y)
			case 1:
				if len(tl) == 0 {
					continue
				}
				i := rng.Intn(len(tl))
				tl[i].State = kobj.ThreadBlockedOnSend
				tb[i].State = kobj.ThreadBlockedOnSend
				lazy.OnBlock(tl[i]) // lazy: leaves it queued
				benno.OnBlock(tb[i])
				tl = append(tl[:i], tl[i+1:]...)
				tb = append(tb[:i], tb[i+1:]...)
			case 2:
				x, _ := lazy.ChooseThread()
				y, _ := benno.ChooseThread()
				switch {
				case x == nil && y == nil:
					continue
				case x == nil || y == nil:
					t.Fatalf("trial %d: lazy chose %v, benno %v", trial, x, y)
				case x.Prio != y.Prio:
					t.Fatalf("trial %d: lazy prio %d, benno prio %d", trial, x.Prio, y.Prio)
				}
				for i := range tl {
					if tl[i] == x {
						if tb[i] != y {
							t.Fatalf("trial %d: schedulers chose different threads", trial)
						}
						tl = append(tl[:i], tl[i+1:]...)
						tb = append(tb[:i], tb[i+1:]...)
						break
					}
				}
			}
		}
	}
}
