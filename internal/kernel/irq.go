package kernel

import (
	"verikern/internal/ipc"
	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/obs"
)

// This file implements interrupt delivery to user-level handler
// threads and the periodic scheduling tick — the pieces that turn the
// bounded interrupt-response latency of the kernel into bounded release
// jitter for a real-time task (§1's mixed-criticality motivation).
//
// Interrupts are delivered as notification signals (seL4's async
// endpoints): the interrupt path ORs the IRQ badge into the handler
// notification and wakes its waiter. Signals with no waiter latch in
// the notification's pending word, exactly as the hardware line would.

// RegisterIRQHandler binds the timer interrupt to a notification
// object: every serviced interrupt signals it (seL4's IRQHandler
// capability model).
func (k *Kernel) RegisterIRQHandler(t *kobj.TCB, ntfnCapAddr uint32) error {
	slot, _, err := k.decodeAs(t, ntfnCapAddr, kobj.CapNotification, "IRQ handler registration")
	if err != nil {
		return err
	}
	k.irqHandlerNtfn = slot.Cap.Notification()
	return nil
}

// irqBadge is the badge the timer interrupt delivers.
const irqBadge = 0xFFFF0001

// signalIRQHandler delivers the interrupt signal from the interrupt
// path. A woken handler is enqueued (never switched to directly — the
// interrupted operation's thread finishes its kernel exit first, as on
// real hardware; the handler wins the next scheduling decision by
// priority).
func (k *Kernel) signalIRQHandler() {
	ntfn := k.irqHandlerNtfn
	if ntfn == nil {
		return
	}
	hadWaiter := ntfn.QHead != nil
	if w := ipc.Signal(&k.ipcEnv, ntfn, irqBadge, k.current); w != nil {
		// Signal chose a direct switch; from the interrupt path
		// we queue instead.
		k.clock.Advance(k.sched.Enqueue(w))
	}
	if hadWaiter {
		k.irqHandlerRuns++
	}
}

// IRQHandlerRuns reports how many times the handler thread was woken
// by an interrupt.
func (k *Kernel) IRQHandlerRuns() uint64 { return k.irqHandlerRuns }

// WaitIRQ waits on the handler notification: a pending (missed) signal
// is consumed immediately, otherwise the thread blocks until the next
// interrupt.
func (k *Kernel) WaitIRQ(t *kobj.TCB, ntfnCapAddr uint32) error {
	slot, levels, err := k.decodeAs(t, ntfnCapAddr, kobj.CapNotification, "wait")
	if err != nil {
		return err
	}
	ntfn := slot.Cap.Notification()
	return k.runRestartable(t, levels, obs.OpWaitIRQ, func() ktime.Outcome {
		switch ipc.Wait(&k.ipcEnv, t, ntfn) {
		case ktime.Done:
			k.irqHandlerRuns++
		case ktime.Blocked:
			k.reschedule()
		}
		return ktime.Done
	})
}

// SignalCap is the user-level signal system call on a notification
// capability.
func (k *Kernel) SignalCap(t *kobj.TCB, ntfnCapAddr uint32) error {
	slot, levels, err := k.decodeAs(t, ntfnCapAddr, kobj.CapNotification, "signal")
	if err != nil {
		return err
	}
	ntfn := slot.Cap.Notification()
	badge := slot.Cap.Badge
	if badge == 0 {
		badge = 1
	}
	return k.runRestartable(t, levels, obs.OpSignal, func() ktime.Outcome {
		if sw := ipc.Signal(&k.ipcEnv, ntfn, badge, t); sw != nil {
			k.switchTo(sw)
		}
		return ktime.Done
	})
}

// PollCap is the non-blocking wait on a notification capability; it
// reports whether a signal was consumed.
func (k *Kernel) PollCap(t *kobj.TCB, ntfnCapAddr uint32) (bool, error) {
	slot, levels, err := k.decodeAs(t, ntfnCapAddr, kobj.CapNotification, "poll")
	if err != nil {
		return false, err
	}
	ntfn := slot.Cap.Notification()
	var got bool
	err = k.runRestartable(t, levels, obs.OpPoll, func() ktime.Outcome {
		got = ipc.Poll(&k.ipcEnv, t, ntfn)
		return ktime.Done
	})
	return got, err
}

// --- Periodic scheduling tick ---

// Tick is the timeslice interrupt: the kernel entry path runs, the
// current thread is put back on its queue (re-establishing the run
// queue invariant exactly as at any preemption, §3.1), and the
// scheduler picks the next thread — round-robin within a priority.
func (k *Kernel) Tick() {
	k.tracer.SetOp(obs.OpTick)
	defer k.tracer.SetOp(obs.OpUser)
	k.clock.Advance(CostKernelEntry)
	k.clock.Advance(CostIRQPath / 2) // timer acknowledge
	if k.current != nil && k.current.State.Runnable() {
		k.current.State = kobj.ThreadRunnable
		k.clock.Advance(k.sched.Enqueue(k.current))
		k.current = nil
	}
	next, c := k.sched.ChooseThread()
	k.clock.Advance(c)
	if next != nil {
		next.State = kobj.ThreadRunning
		k.current = next
		k.clock.Advance(CostContextSwitch)
	}
	k.finishSyscall()
}
