// Package ktime provides the simulated cycle clock the functional
// kernel charges its work to, and the restartable-operation protocol
// every kernel operation follows (§2.1). Interrupt-response latency is
// measured against this clock: a device asserts its IRQ at some cycle,
// and the latency is the cycles that elapse until the kernel reaches a
// preemption point or kernel exit and services it.
package ktime

// Clock is a monotonically advancing cycle counter. The zero value is
// ready to use.
type Clock struct {
	cycles uint64
}

// Advance adds n cycles of simulated work.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.cycles }

// Outcome is the result of one attempt at a kernel operation. A
// preempted operation has saved its progress in the objects it works
// on, never in a continuation, so calling it again resumes it.
type Outcome int

// Operation outcomes.
const (
	// Done: the operation completed.
	Done Outcome = iota
	// Blocked: the caller was queued on an endpoint or notification.
	Blocked
	// Preempted: a pending interrupt stopped the operation at a
	// preemption point; call it again to resume.
	Preempted
	// Failed: the operation cannot proceed.
	Failed
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Done:
		return "done"
	case Blocked:
		return "blocked"
	case Preempted:
		return "preempted"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// Env is what a preemptible operation needs: the clock it charges and
// the probe it consults at each preemption point.
type Env struct {
	Clock *Clock
	// Preempt reports whether an interrupt is pending; consulted
	// only at preemption points.
	Preempt func() bool
}
