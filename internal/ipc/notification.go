package ipc

import (
	"verikern/internal/kobj"
	"verikern/internal/ktime"
)

// Notification operations: asynchronous signalling in the style of the
// seL4 async endpoints of the paper's era. A signal ORs its badge into
// the object's pending word and wakes one waiter if present; a wait
// consumes the accumulated word or blocks. All operations are
// constant-time — there is nothing here for a preemption point to cut.

// CostSignal is one signal delivery.
const CostSignal = 120

// CostNtfnWait is the fixed wait/poll overhead.
const CostNtfnWait = 100

// Signal delivers badge to the notification. If a thread is waiting,
// it is woken with the accumulated word (a direct switch if eligible);
// the returned thread, if non-nil, should become current.
func Signal(e *Env, ntfn *kobj.Notification, badge uint32, cur *kobj.TCB) *kobj.TCB {
	e.Clock.Advance(CostSignal)
	ntfn.Pending |= badge
	w := ntfn.QHead
	if w == nil {
		return nil
	}
	dequeueNtfn(ntfn, w)
	w.SendBadge = ntfn.Pending
	ntfn.Pending = 0
	w.MsgLen = 1
	if e.makeRunnable(w, cur) {
		return w
	}
	return nil
}

// Wait blocks t on the notification, or consumes a pending word
// immediately.
func Wait(e *Env, t *kobj.TCB, ntfn *kobj.Notification) ktime.Outcome {
	e.Clock.Advance(CostNtfnWait)
	if ntfn.Pending != 0 {
		t.SendBadge = ntfn.Pending
		t.MsgLen = 1
		ntfn.Pending = 0
		return ktime.Done
	}
	t.State = kobj.ThreadBlockedOnRecv
	e.Clock.Advance(e.Sched.OnBlock(t))
	enqueueNtfn(ntfn, t)
	return ktime.Blocked
}

// Poll consumes a pending word without blocking; it reports whether a
// signal was present.
func Poll(e *Env, t *kobj.TCB, ntfn *kobj.Notification) bool {
	e.Clock.Advance(CostNtfnWait)
	if ntfn.Pending == 0 {
		return false
	}
	t.SendBadge = ntfn.Pending
	t.MsgLen = 1
	ntfn.Pending = 0
	return true
}

func enqueueNtfn(n *kobj.Notification, t *kobj.TCB) {
	t.EPPrev = n.QTail
	t.EPNext = nil
	if n.QTail != nil {
		n.QTail.EPNext = t
	} else {
		n.QHead = t
	}
	n.QTail = t
	t.WaitingOnNtfn = n
}

func dequeueNtfn(n *kobj.Notification, t *kobj.TCB) {
	if t.EPPrev != nil {
		t.EPPrev.EPNext = t.EPNext
	} else {
		n.QHead = t.EPNext
	}
	if t.EPNext != nil {
		t.EPNext.EPPrev = t.EPPrev
	} else {
		n.QTail = t.EPPrev
	}
	t.EPNext, t.EPPrev = nil, nil
	t.WaitingOnNtfn = nil
}
