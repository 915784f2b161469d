// Package invariant encodes the seL4 proof invariants the paper's
// kernel modifications must preserve (§2.2) as executable checks:
// well-formed data structures (queues, derivation tree), object
// alignment and non-overlap, book-keeping consistency, and the new
// invariants each modification introduced — the Benno invariant (only
// runnable threads on run queues, §3.1), bitmap consistency (§3.2),
// endpoint-deletion forward progress (§3.3), badged-abort resume state
// (§3.4), kernel-window presence in every page directory (§3.5), and
// shadow back-pointer eagerness (§3.6).
//
// The kernel runs the full suite after every operation and at every
// preemption point; a violation is this repository's equivalent of a
// failed proof obligation.
package invariant

import (
	"fmt"

	"verikern/internal/kobj"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// Violation is one failed invariant.
type Violation struct {
	// Invariant names the failed check.
	Invariant string
	// Detail says what was inconsistent.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// State is the kernel state handed to the checker.
type State struct {
	// Objects is the live object set (from kobj.Manager).
	Objects []kobj.Object
	// MDBHead is the derivation-tree sentinel.
	MDBHead *kobj.Slot
	// Sched is the active scheduler.
	Sched sched.Scheduler
	// Current is the running thread (nil = idle).
	Current *kobj.TCB
	// VSpace is the active address-space manager.
	VSpace vspace.Manager
	// AtKernelExit strengthens the checks that only need to hold on
	// exit (kernel-window presence).
	AtKernelExit bool
}

// Check runs every invariant and returns all violations (empty when
// consistent).
func Check(s *State) []Violation {
	var out []Violation
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}
	checkObjects(s, add)
	checkRunQueues(s, add)
	checkEndpoints(s, add)
	checkNotifications(s, add)
	checkMDB(s, add)
	checkVSpace(s, add)
	return out
}

type adder func(inv, format string, args ...any)

// checkObjects: alignment and pairwise non-overlap (§2.2 "object
// alignment"), and no live references to destroyed objects.
func checkObjects(s *State, add adder) {
	for i, o := range s.Objects {
		h := o.Hdr()
		if h.Destroyed {
			add("live-objects", "destroyed object %d in live set", h.ID)
		}
		if h.PAddr%(1<<h.SizeBits) != 0 {
			add("object-alignment", "object %d (%v) at %#x not aligned to 2^%d",
				h.ID, h.Type, h.PAddr, h.SizeBits)
		}
		for j := i + 1; j < len(s.Objects); j++ {
			p := s.Objects[j]
			if kobj.Overlaps(o, p) && !kobj.Contains(o, p) && !kobj.Contains(p, o) {
				add("object-overlap", "objects %d and %d overlap", h.ID, p.Hdr().ID)
			}
		}
	}
}

// checkRunQueues: doubly-linked list well-formedness, the Benno
// invariant, bitmap consistency, and runnable coverage.
func checkRunQueues(s *State, add adder) {
	if s.Sched == nil {
		return
	}
	rq := s.Sched.Queues()
	benno := s.Sched.Kind() != sched.Lazy
	queued := make(map[*kobj.TCB]bool)
	for p := 0; p < kobj.NumPrios; p++ {
		var prev *kobj.TCB
		n := 0
		for t := rq.Q[p].Head; t != nil; t = t.SchedNext {
			if t.SchedPrev != prev {
				add("queue-well-formed", "prio %d: bad back-pointer at %q", p, t.Name)
			}
			if int(t.Prio) != p {
				add("queue-well-formed", "prio %d: thread %q has prio %d", p, t.Name, t.Prio)
			}
			if !t.InRunQueue {
				add("queue-well-formed", "prio %d: queued thread %q not flagged InRunQueue", p, t.Name)
			}
			if queued[t] {
				add("queue-well-formed", "thread %q queued twice", t.Name)
			}
			queued[t] = true
			// The Benno invariant (§3.1): all threads on the
			// run queue are runnable.
			if benno && !t.State.Runnable() {
				add("benno-runnable", "prio %d: queued thread %q in state %v", p, t.Name, t.State)
			}
			prev = t
			n++
			if n > 1<<20 {
				add("queue-well-formed", "prio %d: cycle", p)
				return
			}
		}
		if rq.Q[p].Tail != prev {
			add("queue-well-formed", "prio %d: tail mismatch", p)
		}
		// Bitmap consistency (§3.2).
		if s.Sched.Kind() == sched.BennoBitmap {
			bit := rq.Level2[p>>5]&(1<<(p&31)) != 0
			if bit != (rq.Q[p].Head != nil) {
				add("bitmap-consistent", "prio %d: bitmap bit %v, queue empty %v",
					p, bit, rq.Q[p].Head == nil)
			}
		}
	}
	if s.Sched.Kind() == sched.BennoBitmap {
		for b := 0; b < 8; b++ {
			if (rq.Top&(1<<b) != 0) != (rq.Level2[b] != 0) {
				add("bitmap-consistent", "top bit %d inconsistent with level 2", b)
			}
		}
	}
	// Runnable coverage: every runnable thread is queued or current
	// ("all runnable threads on the system are either on the run
	// queue or currently executing", §3.1). Under lazy scheduling a
	// runnable thread may additionally linger unqueued only if it is
	// the current thread; the original invariant is the same.
	for _, o := range s.Objects {
		t, ok := o.(*kobj.TCB)
		if !ok {
			continue
		}
		if t.State == kobj.ThreadRunnable && !t.InRunQueue && t != s.Current {
			add("runnable-covered", "runnable thread %q neither queued nor current", t.Name)
		}
		if t.InRunQueue && !queued[t] {
			add("queue-well-formed", "thread %q flagged InRunQueue but absent", t.Name)
		}
	}
}

// checkEndpoints: endpoint queue well-formedness, state/queue
// agreement, waiter state consistency, and the badged-abort resume
// state (§3.3–3.4).
func checkEndpoints(s *State, add adder) {
	for _, o := range s.Objects {
		ep, ok := o.(*kobj.Endpoint)
		if !ok {
			continue
		}
		var prev *kobj.TCB
		n := 0
		inQueue := make(map[*kobj.TCB]bool)
		for t := ep.QHead; t != nil; t = t.EPNext {
			if t.EPPrev != prev {
				add("ep-well-formed", "%q: bad back-pointer at %q", ep.Name, t.Name)
			}
			if t.WaitingOn != ep {
				add("ep-well-formed", "%q: waiter %q points elsewhere", ep.Name, t.Name)
			}
			switch ep.State {
			case kobj.EPSending:
				if t.State != kobj.ThreadBlockedOnSend {
					add("ep-waiter-state", "%q: waiter %q state %v on send queue", ep.Name, t.Name, t.State)
				}
			case kobj.EPReceiving:
				if t.State != kobj.ThreadBlockedOnRecv {
					add("ep-waiter-state", "%q: waiter %q state %v on recv queue", ep.Name, t.Name, t.State)
				}
			case kobj.EPIdle:
				add("ep-state", "%q: idle endpoint has waiters", ep.Name)
			}
			inQueue[t] = true
			prev = t
			n++
			if n > 1<<20 {
				add("ep-well-formed", "%q: cycle", ep.Name)
				return
			}
		}
		if ep.QTail != prev {
			add("ep-well-formed", "%q: tail mismatch", ep.Name)
		}
		if ep.QHead == nil && ep.State != kobj.EPIdle {
			add("ep-state", "%q: empty queue but state %v", ep.Name, ep.State)
		}
		// Badged-abort resume state (§3.4): while active, the
		// cursor and end marker must reference queue members (or
		// nil), and the worker must be recorded.
		if ep.AbortActive {
			if ep.AbortWorker == nil {
				add("abort-state", "%q: active abort with no worker", ep.Name)
			}
			if ep.AbortCursor != nil && !inQueue[ep.AbortCursor] {
				add("abort-state", "%q: abort cursor not in queue", ep.Name)
			}
			if ep.AbortEnd != nil && !inQueue[ep.AbortEnd] && ep.AbortCursor != nil {
				add("abort-state", "%q: abort end marker not in queue", ep.Name)
			}
		} else if ep.AbortWorker != nil || ep.AbortEnd != nil {
			add("abort-state", "%q: stale abort fields", ep.Name)
		}
	}
}

// checkNotifications: notification queue well-formedness and waiter
// exclusivity (a thread waits on an endpoint or a notification, never
// both).
func checkNotifications(s *State, add adder) {
	for _, o := range s.Objects {
		n, ok := o.(*kobj.Notification)
		if !ok {
			continue
		}
		var prev *kobj.TCB
		count := 0
		for t := n.QHead; t != nil; t = t.EPNext {
			if t.EPPrev != prev {
				add("ntfn-well-formed", "%q: bad back-pointer at %q", n.Name, t.Name)
			}
			if t.WaitingOnNtfn != n {
				add("ntfn-well-formed", "%q: waiter %q points elsewhere", n.Name, t.Name)
			}
			if t.WaitingOn != nil {
				add("ntfn-exclusive", "%q: waiter %q also queued on endpoint %q", n.Name, t.Name, t.WaitingOn.Name)
			}
			if t.State != kobj.ThreadBlockedOnRecv {
				add("ntfn-waiter-state", "%q: waiter %q state %v", n.Name, t.Name, t.State)
			}
			prev = t
			count++
			if count > 1<<20 {
				add("ntfn-well-formed", "%q: cycle", n.Name)
				return
			}
		}
		if n.QTail != prev {
			add("ntfn-well-formed", "%q: tail mismatch", n.Name)
		}
		// A pending word with waiters present means a signal was
		// not delivered — the wait/signal protocol never leaves
		// this state.
		if n.Pending != 0 && n.QHead != nil {
			add("ntfn-pending", "%q: pending word %#x with waiters queued", n.Name, n.Pending)
		}
	}
}

// checkMDB: the derivation tree's list structure and depth discipline
// (§2.2 "book-keeping invariants").
func checkMDB(s *State, add adder) {
	if s.MDBHead == nil {
		return
	}
	prev := s.MDBHead
	n := 0
	for slot := s.MDBHead.MDBNext; slot != nil; slot = slot.MDBNext {
		if slot.MDBPrev != prev {
			add("mdb-well-formed", "slot %s[%d]: bad back-pointer", slot.CNode.Name, slot.Index)
		}
		if slot.IsEmpty() {
			add("mdb-well-formed", "slot %s[%d]: empty slot linked in MDB", slot.CNode.Name, slot.Index)
		} else if slot.Cap.Obj != nil && slot.Cap.Obj.Hdr().Destroyed {
			add("cap-liveness", "slot %s[%d]: cap to destroyed object %d",
				slot.CNode.Name, slot.Index, slot.Cap.Obj.Hdr().ID)
		}
		// Depth discipline: a node's depth exceeds its
		// predecessor's by at most one (preorder encoding).
		if slot.MDBDepth < 0 || slot.MDBDepth > prev.MDBDepth+1 {
			add("mdb-depth", "slot %s[%d]: depth %d after depth %d",
				slot.CNode.Name, slot.Index, slot.MDBDepth, prev.MDBDepth)
		}
		prev = slot
		n++
		if n > 1<<20 {
			add("mdb-well-formed", "cycle in MDB")
			return
		}
	}
}

// checkVSpace: design-specific address-space consistency (§3.5–3.6).
func checkVSpace(s *State, add adder) {
	if s.VSpace == nil {
		return
	}
	for _, pd := range s.VSpace.VSpaces() {
		// Kernel-window presence is an exit-time invariant
		// (§3.5): "all page directories will contain these
		// global mappings — an invariant that must be maintained
		// upon exiting the kernel".
		if s.AtKernelExit && !pd.KernelWindowCopied {
			add("kernel-window", "pd %d missing kernel mappings at kernel exit", pd.ID)
		}
		// Only indices holding a table or a shadow entry can violate
		// anything, so the walk visits the union of the two.
		for di := nextPDEntry(pd, 0); di < kobj.PDEntries; di = nextPDEntry(pd, di+1) {
			pt := pd.Tables.Get(di)
			if s.VSpace.Design() == vspace.ShadowDesign {
				shadowed := pd.Shadow.Get(di) != nil
				if (pt != nil) != shadowed {
					add("shadow-consistent", "pd %d dir %d: table %v shadow %v",
						pd.ID, di, pt != nil, shadowed)
				}
			}
			if pt == nil {
				continue
			}
			if pt.Parent != pd || pt.ParentIndex != di {
				add("vspace-parent", "pd %d dir %d: table parent link wrong", pd.ID, di)
			}
			for pi := 0; pi < kobj.PTEntries; pi++ {
				f := pt.Entries[pi]
				if s.VSpace.Design() == vspace.ShadowDesign {
					sh := pt.Shadow != nil && pt.Shadow[pi] != nil
					if (f != nil) != sh {
						add("shadow-consistent", "pd %d dir %d pt %d: frame %v shadow %v",
							pd.ID, di, pi, f != nil, sh)
					}
					if f != nil && sh && pt.Shadow[pi].Cap.Type == kobj.CapFrame &&
						pt.Shadow[pi].Cap.Frame() != f {
						add("shadow-consistent", "pd %d dir %d pt %d: shadow points at wrong frame",
							pd.ID, di, pi)
					}
				}
				if f != nil {
					if f.MappedIn != pd {
						add("frame-backref", "frame %d mapped in pd %d but back-pointer disagrees", f.ID, pd.ID)
					}
					wantDi, wantPi := int(f.MappedVaddr>>20), int(f.MappedVaddr>>12&0xFF)
					if wantDi != di || wantPi != pi {
						add("frame-backref", "frame %d vaddr %#x disagrees with position (%d,%d)",
							f.ID, f.MappedVaddr, di, pi)
					}
				}
			}
		}
	}
}

// nextPDEntry returns the lowest directory index >= i holding a table
// or a shadow entry, or kobj.PDEntries when there is none.
func nextPDEntry(pd *kobj.PageDirectory, i int) int {
	return min(pd.Tables.Next(i), pd.Shadow.Next(i))
}
