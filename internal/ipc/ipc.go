// Package ipc implements seL4-style synchronous IPC over endpoints:
// send/receive rendezvous with message and capability transfer, badges,
// the atomic send-receive (ReplyRecv) operation, the IPC fastpath
// (§6.1), and the two preemptible long-running operations the paper
// engineers: endpoint deletion (§3.3) and badged-IPC abort (§3.4).
//
// Long-running operations take a preemption callback; when it reports a
// pending interrupt, the operation saves its progress in the affected
// objects (never in a continuation) and returns ktime.Preempted.
// Re-invoking the operation resumes it — the restartable-system-call
// model of §2.1.
package ipc

import (
	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/obs"
	"verikern/internal/sched"
)

// Operation costs in simulated cycles, scaled to the paper's
// measurements: the fastpath is 200–250 cycles on the ARM1136 (§6.1);
// slowpath IPC with full transfer runs an order of magnitude longer.
const (
	// CostFastpath is a complete fastpath IPC.
	CostFastpath = 230
	// CostSlowpathBase is the fixed slowpath overhead (decode,
	// checks, scheduling) excluding transfer.
	CostSlowpathBase = 900
	// CostTransferWord is per message word copied.
	CostTransferWord = 6
	// CostCapTransfer is per capability granted over IPC (excluding
	// the address decode, which the kernel charges separately).
	CostCapTransfer = 120
	// CostAbortEntry is the per-queue-entry work of the badged
	// abort walk (§3.4): badge compare plus possible dequeue.
	CostAbortEntry = 45
	// CostDeleteEntry is the per-thread work of endpoint deletion
	// (§3.3): dequeue and restart one waiter.
	CostDeleteEntry = 60
	// CostDeactivate covers marking the endpoint for deletion.
	CostDeactivate = 25
)

// Env carries the kernel services IPC operations need: the clock and
// preemption probe every preemptible operation takes, the scheduler,
// and the tracer.
type Env struct {
	ktime.Env
	Sched sched.Scheduler
	// Tracer receives ipc-abort and ep-delete events; nil disables
	// emission.
	Tracer *obs.Tracer
}

// --- Endpoint queue plumbing ---

func enqueueEP(ep *kobj.Endpoint, t *kobj.TCB) {
	t.EPPrev = ep.QTail
	t.EPNext = nil
	if ep.QTail != nil {
		ep.QTail.EPNext = t
	} else {
		ep.QHead = t
	}
	ep.QTail = t
	t.WaitingOn = ep
}

func dequeueEP(ep *kobj.Endpoint, t *kobj.TCB) {
	if t.EPPrev != nil {
		t.EPPrev.EPNext = t.EPNext
	} else {
		ep.QHead = t.EPNext
	}
	if t.EPNext != nil {
		t.EPNext.EPPrev = t.EPPrev
	} else {
		ep.QTail = t.EPPrev
	}
	t.EPNext, t.EPPrev = nil, nil
	t.WaitingOn = nil
	if ep.QHead == nil {
		ep.State = kobj.EPIdle
	}
}

// waitersLeft counts the threads still queued on ep; used only for
// trace-event annotation, so its cost is not charged to the clock.
func waitersLeft(ep *kobj.Endpoint) uint64 {
	var n uint64
	for t := ep.QHead; t != nil; t = t.EPNext {
		n++
	}
	return n
}

// transfer models the message copy from sender to receiver.
func (e *Env) transfer(sender, receiver *kobj.TCB) {
	e.Clock.Advance(uint64(sender.MsgLen) * CostTransferWord)
	e.Clock.Advance(uint64(sender.MsgCaps) * CostCapTransfer)
	receiver.MsgLen = sender.MsgLen
	receiver.MsgCaps = sender.MsgCaps
	receiver.SendBadge = sender.SendBadge
}

// makeRunnable unblocks t: either a direct switch (Benno's trick — the
// caller will switch to it without queueing) or a normal enqueue.
// Returns whether the caller should switch directly.
func (e *Env) makeRunnable(t, cur *kobj.TCB) bool {
	t.State = kobj.ThreadRunnable
	if sw, c := e.Sched.DirectSwitch(t, cur); sw {
		e.Clock.Advance(c)
		return true
	}
	e.Clock.Advance(e.Sched.Enqueue(t))
	return false
}

// FastpathOK reports whether a send on ep can take the IPC fastpath:
// a receiver is already waiting, the message fits in registers, no
// caps are transferred, the receiver can run immediately, and no
// deletion or abort is in progress. The paper's preemption points do
// not touch this path (§6.1).
func FastpathOK(ep *kobj.Endpoint, t *kobj.TCB, msgLen, msgCaps int) bool {
	if ep.Deactivated || ep.AbortActive {
		return false
	}
	if ep.State != kobj.EPReceiving || ep.QHead == nil {
		return false
	}
	if msgLen > 4 || msgCaps > 0 {
		return false
	}
	return ep.QHead.Prio >= t.Prio
}

// Fastpath performs the fastpath send-receive in constant time. The
// caller must have checked FastpathOK.
func Fastpath(e *Env, t *kobj.TCB, ep *kobj.Endpoint, badge uint32, msgLen int) *kobj.TCB {
	receiver := ep.QHead
	dequeueEP(ep, receiver)
	receiver.MsgLen = msgLen
	receiver.SendBadge = badge
	receiver.State = kobj.ThreadRunnable
	e.Clock.Advance(CostFastpath)
	return receiver
}

// Send performs (the send phase of) an IPC on ep. If a receiver waits,
// the message transfers and the receiver becomes runnable; the return
// value is the thread to switch to (nil: keep running t). Otherwise t
// blocks on the endpoint.
func Send(e *Env, t *kobj.TCB, ep *kobj.Endpoint, badge uint32, msgLen, msgCaps int, call bool) (ktime.Outcome, *kobj.TCB) {
	if ep.Deactivated {
		return ktime.Failed, nil
	}
	e.Clock.Advance(CostSlowpathBase)
	t.SendBadge = badge
	t.MsgLen = msgLen
	t.MsgCaps = msgCaps
	t.IsCall = call

	if ep.State == kobj.EPReceiving {
		receiver := ep.QHead
		dequeueEP(ep, receiver)
		e.transfer(t, receiver)
		if call {
			receiver.CallerOf = t
			t.State = kobj.ThreadBlockedOnReply
			e.Clock.Advance(e.Sched.OnBlock(t))
		}
		if e.makeRunnable(receiver, t) {
			return ktime.Done, receiver
		}
		return ktime.Done, nil
	}
	// No receiver: block as a sender.
	t.State = kobj.ThreadBlockedOnSend
	e.Clock.Advance(e.Sched.OnBlock(t))
	enqueueEP(ep, t)
	ep.State = kobj.EPSending
	return ktime.Blocked, nil
}

// Recv performs (the receive phase of) an IPC on ep. If a sender
// waits, its message transfers immediately; otherwise t blocks
// waiting.
func Recv(e *Env, t *kobj.TCB, ep *kobj.Endpoint) (ktime.Outcome, *kobj.TCB) {
	if ep.Deactivated {
		return ktime.Failed, nil
	}
	e.Clock.Advance(CostSlowpathBase)
	if ep.State == kobj.EPSending {
		sender := ep.QHead
		dequeueEP(ep, sender)
		e.transfer(sender, t)
		if sender.IsCall {
			t.CallerOf = sender
			sender.State = kobj.ThreadBlockedOnReply
			// Sender stays blocked awaiting reply.
			return ktime.Done, nil
		}
		if e.makeRunnable(sender, t) {
			return ktime.Done, sender
		}
		return ktime.Done, nil
	}
	t.State = kobj.ThreadBlockedOnRecv
	e.Clock.Advance(e.Sched.OnBlock(t))
	enqueueEP(ep, t)
	ep.State = kobj.EPReceiving
	return ktime.Blocked, nil
}

// Reply completes a call: the server t replies to its caller, which
// becomes runnable again.
func Reply(e *Env, t *kobj.TCB) (ktime.Outcome, *kobj.TCB) {
	caller := t.CallerOf
	if caller == nil {
		return ktime.Failed, nil
	}
	e.Clock.Advance(CostSlowpathBase / 2)
	e.transfer(t, caller)
	t.CallerOf = nil
	if e.makeRunnable(caller, t) {
		return ktime.Done, caller
	}
	return ktime.Done, nil
}

// DeleteEndpoint deletes ep: deactivate it (guaranteeing forward
// progress — no thread can start new IPC on it, §3.3), then dequeue
// and restart waiting threads one at a time, with a preemption point
// after each. The intermediate state is consistent with all invariants
// even if the deleting thread is itself deleted.
func DeleteEndpoint(e *Env, ep *kobj.Endpoint) ktime.Outcome {
	if !ep.Deactivated {
		ep.Deactivated = true
		e.Clock.Advance(CostDeactivate)
	}
	for ep.QHead != nil {
		t := ep.QHead
		dequeueEP(ep, t)
		// The waiter's IPC is aborted; it restarts its syscall
		// and observes the failure.
		t.State = kobj.ThreadRunnable
		t.RestartPC = true
		e.Clock.Advance(CostDeleteEntry)
		e.Clock.Advance(e.Sched.Enqueue(t))
		e.Tracer.Emit(obs.KindEPDelete, e.Clock.Now(), waitersLeft(ep), 0)
		if ep.QHead != nil && e.Preempt() {
			return ktime.Preempted
		}
	}
	ep.State = kobj.EPIdle
	return ktime.Done
}

// AbortBadged removes every pending IPC with the given badge from ep's
// queue (§3.4). Progress is stored on the endpoint object itself —
// cursor, end marker, badge and worker — so that (a) a preempted abort
// resumes without repeating work, (b) threads that queue after the
// operation started are not scanned, and (c) a different thread
// starting a second abort first completes this one on the original
// worker's behalf.
func AbortBadged(e *Env, worker *kobj.TCB, ep *kobj.Endpoint, badge uint32) ktime.Outcome {
	if ep.AbortActive && ep.AbortBadge != badge {
		// Complete the in-progress abort first (§3.4 item 4).
		if out := runAbort(e, ep); out == ktime.Preempted {
			return ktime.Preempted
		}
	}
	if !ep.AbortActive {
		ep.AbortActive = true
		ep.AbortBadge = badge
		ep.AbortWorker = worker
		ep.AbortCursor = ep.QHead
		ep.AbortEnd = ep.QTail
		e.Clock.Advance(CostDeactivate)
	}
	return runAbort(e, ep)
}

// runAbort advances the endpoint's in-progress abort from its saved
// cursor, one queue entry per preemption-point interval.
func runAbort(e *Env, ep *kobj.Endpoint) ktime.Outcome {
	for ep.AbortCursor != nil {
		t := ep.AbortCursor
		atEnd := t == ep.AbortEnd
		next := t.EPNext
		e.Clock.Advance(CostAbortEntry)
		if t.SendBadge == ep.AbortBadge && t.State == kobj.ThreadBlockedOnSend {
			dequeueEP(ep, t)
			t.State = kobj.ThreadRunnable
			t.RestartPC = true
			e.Clock.Advance(e.Sched.Enqueue(t))
			e.Tracer.Emit(obs.KindIPCAbort, e.Clock.Now(), uint64(ep.AbortBadge), 0)
		}
		if atEnd {
			ep.AbortCursor = nil
			break
		}
		ep.AbortCursor = next
		if e.Preempt() {
			return ktime.Preempted
		}
	}
	// Completed: clear the resume state and notify the worker.
	ep.AbortActive = false
	ep.AbortBadge = 0
	ep.AbortEnd = nil
	ep.AbortWorker = nil
	return ktime.Done
}
