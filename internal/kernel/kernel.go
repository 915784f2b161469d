// Package kernel assembles the functional model of the protected
// microkernel the paper studies: an event-based kernel with a single
// kernel stack, interrupts disabled during kernel execution, and
// explicit preemption points in its long-running operations (§2).
//
// The kernel is parameterised by configuration so the paper's "before"
// (lazy scheduling, ASIDs, no preemption points) and "after" (Benno
// scheduling with bitmaps, shadow page tables, preemption points
// everywhere) designs can be compared on the same workloads. Work is
// charged to a simulated cycle clock; a timer device raises an IRQ at a
// programmed cycle, and the kernel records the latency from assertion
// to service — the interrupt response time of the title.
//
// Preempted operations follow seL4's restartable-syscall model (§2.1):
// the kernel saves progress in the affected objects, unwinds, services
// the interrupt, and the thread re-executes the same system call, which
// resumes where it left off. The full invariant suite
// (internal/invariant) runs at every preemption point and kernel exit.
package kernel

import (
	"fmt"

	"verikern/internal/invariant"
	"verikern/internal/ipc"
	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/obs"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// Config selects the kernel design variant.
type Config struct {
	// Scheduler picks the scheduling design (§3.1–3.2).
	Scheduler sched.Kind
	// VSpace picks the address-space design (§3.6).
	VSpace vspace.Design
	// PreemptionPoints enables the paper's added preemption points;
	// disabled, long operations run to completion with interrupts
	// masked (the "before" kernel).
	PreemptionPoints bool
	// Fastpath enables the IPC fastpath (§6.1).
	Fastpath bool
	// SplitSendReceive inserts the future-work preemption point
	// between the send and receive phases of ReplyRecv (§6.1, §8).
	SplitSendReceive bool
	// ClearChunkBytes is the object-clearing preemption granularity
	// (§3.5). Zero means the paper's 1 KiB. The paper argues
	// smaller multiples cannot improve worst-case latency while the
	// non-preemptible kernel-window copy (1 KiB, ~20 µs) remains —
	// the AblationClearChunk experiment demonstrates it.
	ClearChunkBytes uint32
	// CheckInvariants runs the invariant suite at every operation
	// boundary and preemption point.
	CheckInvariants bool
}

// DefaultClearChunkBytes is the paper's 1 KiB object-clearing
// preemption granularity (§3.5), applied when ClearChunkBytes is zero.
const DefaultClearChunkBytes = 1024

// EffectiveClearChunkBytes resolves the zero default, so configuration
// equality at the behavioural level — e.g. a konfig lattice point with
// an explicit 1024 against a legacy zero-valued Config — can be judged
// on the value the clearing loop actually uses.
func (c Config) EffectiveClearChunkBytes() uint32 {
	if c.ClearChunkBytes == 0 {
		return DefaultClearChunkBytes
	}
	return c.ClearChunkBytes
}

// Modern is the paper's improved kernel: Benno scheduling with
// bitmaps, shadow page tables, preemption points, fastpath, invariant
// checking.
func Modern() Config {
	return Config{
		Scheduler:        sched.BennoBitmap,
		VSpace:           vspace.ShadowDesign,
		PreemptionPoints: true,
		Fastpath:         true,
		CheckInvariants:  true,
	}
}

// Original is the pre-modification kernel: lazy scheduling, ASIDs, no
// preemption points.
func Original() Config {
	return Config{
		Scheduler:        sched.Lazy,
		VSpace:           vspace.ASIDDesign,
		PreemptionPoints: false,
		Fastpath:         true,
		CheckInvariants:  true,
	}
}

// Entry/exit and path costs in simulated cycles, scaled against the
// paper's measured kernel (fastpath ≈ 230 cycles, §6.1; kernel entry
// and exit dominate short system calls).
const (
	// CostKernelEntry covers trap entry, mode switch and register
	// save.
	CostKernelEntry = 150
	// CostKernelExit covers the return to user.
	CostKernelExit = 120
	// CostSyscallDecode is the fixed syscall decode work, re-done
	// when a preempted operation restarts (§2.1's "small amount of
	// duplicated effort").
	CostSyscallDecode = 160
	// CostDecodeLevel is one level of capability-space decoding —
	// the per-level cache-miss driver of the §6.1 worst case.
	CostDecodeLevel = 40
	// CostIRQPath is the kernel's interrupt delivery path.
	CostIRQPath = 700
	// CostContextSwitch is a thread switch (no stack switch in the
	// event-based kernel, §2.1).
	CostContextSwitch = 190
)

// Stats aggregates kernel activity counters.
type Stats struct {
	Syscalls     uint64
	Restarts     uint64
	Preemptions  uint64
	IRQsServiced uint64
	FastpathIPCs uint64
	SlowpathIPCs uint64
}

// Kernel is the functional kernel instance.
type Kernel struct {
	cfg     Config
	clock   ktime.Clock
	objects *kobj.Manager
	sched   sched.Scheduler
	vspace  vspace.Manager

	current *kobj.TCB

	irqPending  bool
	irqRaisedAt uint64
	timerAt     uint64
	timerArmed  bool
	// timerPeriod re-arms the timer after each firing (a periodic
	// tick source); zero means one-shot.
	timerPeriod uint64

	// maxLatency is the worst interrupt-response latency since boot or
	// the last ResetMaxLatency; the kernel keeps no sample list (the
	// tracer's histograms hold the distribution).
	maxLatency uint64

	// irqHandlerNtfn, when set, receives a signal on every serviced
	// interrupt (the IRQHandler capability model); signals with no
	// waiter latch in the notification's pending word.
	irqHandlerNtfn *kobj.Notification
	irqHandlerRuns uint64

	stats      Stats
	violations []invariant.Violation

	// tracer, when set, receives kernel trace events. A nil tracer
	// costs one predictable branch per potential event, keeping the
	// disabled-tracing cycle behaviour identical to the seed.
	tracer *obs.Tracer

	// ipcEnv is the environment handed to the IPC layer; the vspace
	// layer takes its embedded ktime.Env. It lives as long as the
	// kernel (SetTracer keeps its tracer current), so a system call
	// or restart allocates neither it nor the bound preemption probe.
	ipcEnv ipc.Env

	rootUntyped *kobj.Untyped
	rootCNode   *kobj.CNode

	// pendingClear tracks preemptible object-creation progress: the
	// paper stores clearing progress "within the object itself"
	// (§3.5); we keep it keyed by the untyped being retyped.
	pendingClear map[*kobj.Untyped]*clearProgress
}

type clearProgress struct {
	// remaining bytes to clear before book-keeping may run.
	remaining uint32
}

// New boots a kernel with the given configuration: a root untyped
// region, a root CNode, and a root task.
func New(cfg Config) (*Kernel, error) {
	k := &Kernel{
		cfg:          cfg,
		objects:      kobj.NewManager(),
		sched:        sched.New(cfg.Scheduler),
		vspace:       vspace.New(cfg.VSpace),
		pendingClear: make(map[*kobj.Untyped]*clearProgress),
	}
	k.ipcEnv = ipc.Env{Env: ktime.Env{Clock: &k.clock, Preempt: k.preempt}, Sched: k.sched}
	u, err := k.objects.NewRootUntyped(26) // 64 MiB of untyped at boot
	if err != nil {
		return nil, err
	}
	k.rootUntyped = u
	cnObjs, err := k.objects.Retype(u, kobj.TypeCNode, 12, 1)
	if err != nil {
		return nil, err
	}
	k.rootCNode = cnObjs[0].(*kobj.CNode)
	k.rootCNode.Name = "root-cnode"
	k.rootCNode.GuardBits = 20 // 12-bit radix + 20-bit guard = 1 level
	// Slot 0 holds the boot untyped cap, the derivation root of all
	// created objects.
	k.objects.SetCap(k.rootCNode.Slot(0),
		kobj.Cap{Type: kobj.CapUntyped, Obj: u, Rights: kobj.RightsAll}, nil)
	return k, nil
}

// SetTracer attaches an event tracer to the kernel and its scheduler.
// Pass nil to disable tracing.
func (k *Kernel) SetTracer(t *obs.Tracer) {
	k.tracer = t
	k.ipcEnv.Tracer = t
	k.sched.SetTrace(t, &k.clock)
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (k *Kernel) Tracer() *obs.Tracer { return k.tracer }

// Now returns the simulated cycle clock.
func (k *Kernel) Now() uint64 { return k.clock.Now() }

// Stats returns activity counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Current returns the running thread (nil = idle).
func (k *Kernel) Current() *kobj.TCB { return k.current }

// RootUntyped returns the boot untyped region.
func (k *Kernel) RootUntyped() *kobj.Untyped { return k.rootUntyped }

// Objects returns the object manager.
func (k *Kernel) Objects() *kobj.Manager { return k.objects }

// VSpace returns the address-space manager.
func (k *Kernel) VSpace() vspace.Manager { return k.vspace }

// Scheduler returns the scheduler.
func (k *Kernel) Scheduler() sched.Scheduler { return k.sched }

// MaxLatency returns the worst interrupt-response latency recorded
// since boot or the last ResetMaxLatency.
func (k *Kernel) MaxLatency() uint64 { return k.maxLatency }

// ResetMaxLatency restarts the MaxLatency window, so a caller can read
// the worst sample of one phase or probe evaluation.
func (k *Kernel) ResetMaxLatency() { k.maxLatency = 0 }

// --- IRQ model ---

// SetTimer programs the timer device to assert its IRQ once at the
// given absolute cycle.
func (k *Kernel) SetTimer(at uint64) {
	k.timerAt = at
	k.timerArmed = true
	k.timerPeriod = 0
}

// SetPeriodicTimer programs a free-running periodic timer: the IRQ
// asserts every period cycles, starting one period from now — the
// release source of a periodic real-time task.
func (k *Kernel) SetPeriodicTimer(period uint64) {
	if period == 0 {
		k.timerArmed = false
		k.timerPeriod = 0
		return
	}
	k.timerAt = k.clock.Now() + period
	k.timerArmed = true
	k.timerPeriod = period
}

// pollIRQ latches the timer into the pending line. Hardware asserts
// asynchronously; the simulation latches whenever the kernel looks.
func (k *Kernel) pollIRQ() bool {
	if k.timerArmed && k.clock.Now() >= k.timerAt {
		if !k.irqPending {
			k.irqPending = true
			k.irqRaisedAt = k.timerAt
			k.tracer.Emit(obs.KindIRQRaise, k.irqRaisedAt, 0, 0)
		}
		if k.timerPeriod > 0 {
			// Periodic: re-arm past 'now'; releases the line
			// missed while it was already pending are
			// coalesced, as a real latched line would.
			for k.timerAt <= k.clock.Now() {
				k.timerAt += k.timerPeriod
			}
		} else {
			k.timerArmed = false
		}
	}
	return k.irqPending
}

// preempt is the preemption-point probe handed to long-running
// operations: with preemption points disabled (the "before" kernel) it
// always reports no pending work, so operations run to completion.
func (k *Kernel) preempt() bool {
	if !k.cfg.PreemptionPoints {
		return false
	}
	k.tracer.Emit(obs.KindPreemptHit, k.clock.Now(), 0, 0)
	if k.pollIRQ() {
		k.tracer.Emit(obs.KindPreemptTaken, k.clock.Now(), 0, 0)
		return true
	}
	return false
}

// serviceIRQ runs the kernel's interrupt path and records the response
// latency.
func (k *Kernel) serviceIRQ() {
	if !k.irqPending {
		return
	}
	k.clock.Advance(CostIRQPath)
	lat := k.clock.Now() - k.irqRaisedAt
	k.tracer.Emit(obs.KindIRQService, k.clock.Now(), lat, 0)
	if lat > k.maxLatency {
		k.maxLatency = lat
	}
	k.irqPending = false
	k.stats.IRQsServiced++
	k.signalIRQHandler()
}

// checkInvariants runs the invariant suite and records violations.
func (k *Kernel) checkInvariants(atExit bool) {
	if !k.cfg.CheckInvariants {
		return
	}
	vs := invariant.Check(&invariant.State{
		Objects:      k.objects.Objects(),
		MDBHead:      k.objects.MDBHead(),
		Sched:        k.sched,
		Current:      k.current,
		VSpace:       k.vspace,
		AtKernelExit: atExit,
	})
	k.violations = append(k.violations, vs...)
}

// InvariantFailure formats the first violation, for tests.
func (k *Kernel) InvariantFailure() error {
	if len(k.violations) == 0 {
		return nil
	}
	return fmt.Errorf("kernel: %d invariant violations, first: %s", len(k.violations), k.violations[0])
}
