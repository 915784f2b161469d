package kernel

import (
	"fmt"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/obs"
)

// Thread-management system calls: priority changes, suspension and
// resumption. Each must preserve the scheduler invariants — in
// particular, a queued thread whose priority changes must move queues
// atomically (priority is the queue index, §3.2), and a suspended
// thread must leave both the run queue and any endpoint queue
// (re-establishing the Benno invariant, §3.1).

// CostThreadOp is the fixed cost of a TCB-invocation system call.
const CostThreadOp = 220

// SetPriority changes a thread's priority. If the thread is queued it
// is dequeued and re-enqueued at the new priority; the scheduler
// bitmap follows automatically.
func (k *Kernel) SetPriority(t *kobj.TCB, target *kobj.TCB, prio uint8) error {
	return k.runRestartable(t, 1, obs.OpThreadCtl, func() ktime.Outcome {
		k.clock.Advance(CostThreadOp)
		if target.InRunQueue {
			// OnBlock/Enqueue perform the queue moves; the
			// thread stays runnable throughout.
			k.clock.Advance(k.sched.OnBlock(target))
			target.Prio = prio
			k.clock.Advance(k.sched.Enqueue(target))
		} else {
			target.Prio = prio
		}
		// A priority change may make the target preempt the
		// current thread.
		if target.State == kobj.ThreadRunnable && k.current != nil &&
			target.Prio > k.current.Prio && target.InRunQueue {
			k.clock.Advance(k.sched.OnBlock(target)) // dequeue for switch
			k.switchTo(target)
		}
		return ktime.Done
	})
}

// Suspend makes a thread inactive: it leaves the run queue and aborts
// any IPC it is blocked on (dequeuing it from the endpoint).
func (k *Kernel) Suspend(t *kobj.TCB, target *kobj.TCB) error {
	return k.runRestartable(t, 1, obs.OpThreadCtl, func() ktime.Outcome {
		k.clock.Advance(CostThreadOp)
		if target.InRunQueue {
			k.clock.Advance(k.sched.OnBlock(target))
		}
		if ep := target.WaitingOn; ep != nil {
			// Dequeue from the endpoint, preserving its queue
			// invariants.
			if target.EPPrev != nil {
				target.EPPrev.EPNext = target.EPNext
			} else {
				ep.QHead = target.EPNext
			}
			if target.EPNext != nil {
				target.EPNext.EPPrev = target.EPPrev
			} else {
				ep.QTail = target.EPPrev
			}
			target.EPNext, target.EPPrev = nil, nil
			target.WaitingOn = nil
			if ep.QHead == nil {
				ep.State = kobj.EPIdle
			}
		}
		target.State = kobj.ThreadInactive
		if target == k.current {
			k.current = nil
			k.reschedule()
		}
		return ktime.Done
	})
}

// Resume makes an inactive thread runnable again.
func (k *Kernel) Resume(t *kobj.TCB, target *kobj.TCB) error {
	if target.State != kobj.ThreadInactive {
		return fmt.Errorf("kernel: resume of %v thread", target.State)
	}
	return k.runRestartable(t, 1, obs.OpThreadCtl, func() ktime.Outcome {
		k.clock.Advance(CostThreadOp)
		target.State = kobj.ThreadRunnable
		target.RestartPC = true
		if k.current == nil {
			target.State = kobj.ThreadRunning
			k.current = target
		} else {
			k.clock.Advance(k.sched.Enqueue(target))
		}
		return ktime.Done
	})
}
