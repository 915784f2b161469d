package obs

import "fmt"

// Op tags the kernel operation in progress when an event is emitted.
// The tracer stamps every event with the current tag and attributes
// each interrupt-response sample to the operation that was running
// when the interrupt latched — the per-source dimension of the latency
// observatory (docs/observability.md).
//
// Op is deliberately small and fixed so Event stays fixed-size and the
// per-source histogram array can be preallocated inside the tracer.
type Op uint8

// Operation tags.
const (
	// OpUser: no kernel operation in progress (user mode or idle
	// outside an explicit Idle window).
	OpUser Op = iota
	// OpSend is an IPC send or call (§6.1).
	OpSend
	// OpRecv is an IPC receive.
	OpRecv
	// OpReplyRecv is the combined reply-and-receive (§6.1).
	OpReplyRecv
	// OpDelete is capability deletion, including the preemptible
	// endpoint-deletion walk (§3.3).
	OpDelete
	// OpRevoke is subtree revocation, one child per preemption
	// interval.
	OpRevoke
	// OpCapOp is a constant-time capability copy or move.
	OpCapOp
	// OpBadgeRevoke is badge revocation and its abort walk (§3.4).
	OpBadgeRevoke
	// OpRetype is object creation: the chunked clear plus the atomic
	// book-keeping pass (§3.5).
	OpRetype
	// OpVSpaceDelete is address-space teardown (§3.6).
	OpVSpaceDelete
	// OpMapTable is a page-table map.
	OpMapTable
	// OpMapFrame is a frame map.
	OpMapFrame
	// OpUnmapFrame is a frame unmap.
	OpUnmapFrame
	// OpThreadCtl is a TCB invocation (priority, suspend, resume).
	OpThreadCtl
	// OpWaitIRQ is a wait on the IRQ handler notification.
	OpWaitIRQ
	// OpSignal is a notification signal.
	OpSignal
	// OpPoll is a non-blocking notification poll.
	OpPoll
	// OpYield is an explicit scheduling pass.
	OpYield
	// OpTick is the timeslice interrupt path.
	OpTick
	// OpIdle is a userspace/idle window, where interrupts are taken
	// immediately.
	OpIdle
	// OpReplay is a machine-level trace replay.
	OpReplay

	numOps
)

// String returns the operation's wire name, used as the `source` label
// of per-source latency digests and the `op` arg of Chrome events.
func (o Op) String() string {
	switch o {
	case OpUser:
		return "user"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpReplyRecv:
		return "reply-recv"
	case OpDelete:
		return "cap-delete"
	case OpRevoke:
		return "revoke"
	case OpCapOp:
		return "cap-op"
	case OpBadgeRevoke:
		return "badge-revoke"
	case OpRetype:
		return "retype"
	case OpVSpaceDelete:
		return "vspace-delete"
	case OpMapTable:
		return "map-table"
	case OpMapFrame:
		return "map-frame"
	case OpUnmapFrame:
		return "unmap-frame"
	case OpThreadCtl:
		return "thread-ctl"
	case OpWaitIRQ:
		return "wait-irq"
	case OpSignal:
		return "signal"
	case OpPoll:
		return "poll"
	case OpYield:
		return "yield"
	case OpTick:
		return "tick"
	case OpIdle:
		return "idle"
	case OpReplay:
		return "replay"
	default:
		return fmt.Sprintf("op-%d", uint8(o))
	}
}

// NumOps is the number of defined operation tags: the length of a
// per-source histogram table.
const NumOps = int(numOps)
