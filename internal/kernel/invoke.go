package kernel

import (
	"fmt"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/obs"
)

// runRestartable executes a system call for thread t under the
// restartable model (§2.1): entry and decode costs are charged, the
// body runs with interrupts disabled, and on preemption the kernel
// saves nothing on the stack — it re-establishes run-queue consistency,
// services the interrupt, returns to user, and the thread re-executes
// the same call, which resumes from the object state.
//
// op tags the tracer with the operation in progress for the duration
// of the call (including restarts), which is what attributes each
// interrupt-response sample to the operation that delayed it.
func (k *Kernel) runRestartable(t *kobj.TCB, decodeLevels int, op obs.Op, body func() ktime.Outcome) error {
	k.stats.Syscalls++
	k.tracer.SetOp(op)
	defer k.tracer.SetOp(obs.OpUser)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			k.stats.Restarts++
		}
		// Kernel entry plus syscall decode; the decode is re-done
		// on every restart — the paper's "duplicated effort"
		// that stays hot in the caches (§2.1).
		k.clock.Advance(CostKernelEntry + CostSyscallDecode)
		k.clock.Advance(uint64(decodeLevels) * CostDecodeLevel)

		out := body()
		switch out {
		case ktime.Preempted:
			k.stats.Preemptions++
			// Re-establish the run-queue invariant for the
			// preempted thread (§3.1: "the preempted thread
			// must be entered in the run queue if it is not
			// already there").
			k.clock.Advance(k.sched.AtPreemption(k.current))
			// Every preemption point must satisfy the proof
			// invariants — the paper's core verification
			// obligation.
			k.checkInvariants(false)
			// The preempted operation returns up the call
			// stack into the interrupt handler (§5.2 path
			// termination case (b)).
			k.serviceIRQ()
			k.clock.Advance(CostKernelExit)
			continue
		case ktime.Failed:
			k.finishSyscall()
			return fmt.Errorf("kernel: syscall failed for %q", t.Name)
		default:
			k.finishSyscall()
			return nil
		}
	}
}

// finishSyscall is the common kernel-exit path: any pending interrupt
// is serviced now that interrupts are about to be re-enabled, exit cost
// is charged, and the exit-time invariants are checked.
func (k *Kernel) finishSyscall() {
	k.checkInvariants(false)
	if k.pollIRQ() {
		k.serviceIRQ()
	}
	k.clock.Advance(CostKernelExit)
	k.checkInvariants(true)
}

// switchTo makes next the running thread, preserving the invariant
// that every runnable thread is queued or current.
func (k *Kernel) switchTo(next *kobj.TCB) {
	if next == k.current {
		return
	}
	k.clock.Advance(CostContextSwitch)
	if k.current != nil && k.current.State.Runnable() {
		k.current.State = kobj.ThreadRunnable
		k.clock.Advance(k.sched.Enqueue(k.current))
	}
	next.State = kobj.ThreadRunning
	k.current = next
}

// reschedule picks a new thread when the current one can no longer
// run.
func (k *Kernel) reschedule() {
	if k.current != nil && k.current.State.Runnable() {
		return
	}
	next, c := k.sched.ChooseThread()
	k.clock.Advance(c)
	if next == nil {
		k.current = nil // idle thread
		return
	}
	k.clock.Advance(CostContextSwitch)
	next.State = kobj.ThreadRunning
	k.current = next
}

// --- Thread lifecycle ---

// CreateThread retypes a TCB from the root untyped and prepares it
// with the root CSpace and no address space. The thread starts
// inactive.
func (k *Kernel) CreateThread(name string, prio uint8) (*kobj.TCB, error) {
	objs, err := k.objects.Retype(k.rootUntyped, kobj.TypeTCB, 0, 1)
	if err != nil {
		return nil, err
	}
	t := objs[0].(*kobj.TCB)
	t.Name = name
	t.Prio = prio
	t.CSpaceRoot = kobj.Cap{Type: kobj.CapCNode, Obj: k.rootCNode, Rights: kobj.RightsAll}
	return t, nil
}

// StartThread makes a thread runnable. If nothing is running it
// becomes current, otherwise it enters the run queue.
func (k *Kernel) StartThread(t *kobj.TCB) {
	if t.State.Runnable() {
		return
	}
	t.State = kobj.ThreadRunnable
	if k.current == nil {
		t.State = kobj.ThreadRunning
		k.current = t
		return
	}
	k.clock.Advance(k.sched.Enqueue(t))
}

// Yield forces a scheduling pass: the current thread goes to the back
// of its queue and the highest-priority runnable thread runs. This is
// also where a pending timer interrupt preempts a running thread.
func (k *Kernel) Yield() {
	k.tracer.SetOp(obs.OpYield)
	defer k.tracer.SetOp(obs.OpUser)
	k.clock.Advance(CostKernelEntry)
	if k.current != nil {
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

// Idle advances the clock with the CPU in userspace/idle, where
// interrupts are taken immediately.
func (k *Kernel) Idle(cycles uint64) {
	k.tracer.SetOp(obs.OpIdle)
	defer k.tracer.SetOp(obs.OpUser)
	k.clock.Advance(cycles)
	if k.pollIRQ() {
		// Interrupt taken from user mode: entry + IRQ path.
		k.clock.Advance(CostKernelEntry)
		k.serviceIRQ()
		k.clock.Advance(CostKernelExit)
	}
}
