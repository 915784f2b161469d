// Package kobj implements the seL4-style kernel object model the
// paper's kernel modifications operate on: typed kernel objects created
// from untyped memory, 16-byte capabilities held in CNode slots, the
// capability derivation tree used for revocation, and guarded
// capability-space decoding (the 32-level worst case of §6.1, Fig. 7).
//
// The model is functional, not byte-accurate: objects are Go values
// with simulated physical addresses, sizes and alignment, so the
// paper's structural invariants (alignment, non-overlap, well-formed
// queues and derivation trees) are directly checkable.
package kobj

import "fmt"

// ObjType enumerates kernel object types.
type ObjType uint8

// Kernel object types. The set follows seL4 on ARMv6 (§3.5–3.6).
const (
	TypeUntyped ObjType = iota
	TypeTCB
	TypeEndpoint
	TypeNotification
	TypeCNode
	TypeFrame
	TypePageTable
	TypePageDirectory
	TypeASIDPool
)

// String returns the type name.
func (t ObjType) String() string {
	switch t {
	case TypeUntyped:
		return "untyped"
	case TypeTCB:
		return "tcb"
	case TypeEndpoint:
		return "endpoint"
	case TypeNotification:
		return "notification"
	case TypeCNode:
		return "cnode"
	case TypeFrame:
		return "frame"
	case TypePageTable:
		return "pagetable"
	case TypePageDirectory:
		return "pagedirectory"
	case TypeASIDPool:
		return "asidpool"
	default:
		return "unknown"
	}
}

// Header is the common part of every kernel object.
type Header struct {
	Type ObjType
	// PAddr is the simulated physical address; objects are aligned
	// to their size (an seL4 proof invariant, §2.2).
	PAddr uint32
	// SizeBits is log2 of the object's size in bytes.
	SizeBits uint8
	// ID is a unique object identity for diagnostics.
	ID uint64
	// Destroyed marks an object deleted; reuse of destroyed objects
	// is an invariant violation.
	Destroyed bool

	// liveIdx, parent and childIdx locate the object for an O(1)
	// Manager.Destroy: its index in the manager's live set, the
	// untyped it was retyped from (nil for a boot region), and its
	// index in that untyped's Children.
	liveIdx  int
	parent   *Untyped
	childIdx int
}

// Hdr returns the header; all objects embed Header and satisfy Object.
func (h *Header) Hdr() *Header { return h }

// Size returns the object size in bytes.
func (h *Header) Size() uint32 { return 1 << h.SizeBits }

// End returns one past the object's last byte.
func (h *Header) End() uint32 { return h.PAddr + h.Size() }

// Object is any kernel object.
type Object interface {
	Hdr() *Header
}

// Overlaps reports whether two objects' physical footprints intersect.
func Overlaps(a, b Object) bool {
	ha, hb := a.Hdr(), b.Hdr()
	return ha.PAddr < hb.End() && hb.PAddr < ha.End()
}

// Contains reports whether a is an untyped region whose footprint fully
// contains b — the only legal form of overlap (a retyped child inside
// its parent untyped).
func Contains(a, b Object) bool {
	ha, hb := a.Hdr(), b.Hdr()
	return ha.Type == TypeUntyped && ha.PAddr <= hb.PAddr && hb.End() <= ha.End()
}

// ThreadState is a TCB's scheduling state.
type ThreadState uint8

// Thread states, mirroring seL4's.
const (
	// ThreadInactive: not schedulable, not waiting.
	ThreadInactive ThreadState = iota
	// ThreadRunning: the currently executing thread.
	ThreadRunning
	// ThreadRunnable: ready to run (on or eligible for the run
	// queue).
	ThreadRunnable
	// ThreadBlockedOnSend: queued on an endpoint waiting to send.
	ThreadBlockedOnSend
	// ThreadBlockedOnRecv: queued on an endpoint waiting to
	// receive.
	ThreadBlockedOnRecv
	// ThreadBlockedOnReply: waiting for a reply to a call.
	ThreadBlockedOnReply
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case ThreadInactive:
		return "inactive"
	case ThreadRunning:
		return "running"
	case ThreadRunnable:
		return "runnable"
	case ThreadBlockedOnSend:
		return "blocked-send"
	case ThreadBlockedOnRecv:
		return "blocked-recv"
	case ThreadBlockedOnReply:
		return "blocked-reply"
	default:
		return "unknown"
	}
}

// Runnable reports whether the state allows execution.
func (s ThreadState) Runnable() bool {
	return s == ThreadRunning || s == ThreadRunnable
}

// NumPrios is the number of thread priorities seL4 supports (§3.2).
const NumPrios = 256

// MaxMsgWords is the maximum IPC message length in words (the
// "full-length message transfer" of the worst case, §6.1).
const MaxMsgWords = 120

// TCBSizeBits is log2 of a thread control block's size: 512 bytes.
const TCBSizeBits = 9

// TCB is a thread control block.
type TCB struct {
	Header
	Name  string
	State ThreadState
	Prio  uint8

	// Scheduler queue links (intrusive doubly-linked list).
	SchedNext, SchedPrev *TCB
	// InRunQueue marks queue membership; with lazy scheduling a
	// blocked thread may remain queued (§3.1).
	InRunQueue bool

	// Endpoint queue links.
	EPNext, EPPrev *TCB
	// WaitingOn is the endpoint the thread is queued on, if any.
	WaitingOn *Endpoint
	// WaitingOnNtfn is the notification the thread is queued on, if
	// any; mutually exclusive with WaitingOn.
	WaitingOnNtfn *Notification
	// SendBadge is the badge of an in-flight send.
	SendBadge uint32
	// IsCall marks a blocked send as a call (expects a reply).
	IsCall bool
	// CallerOf is set on a server thread holding a reply right.
	CallerOf *TCB

	// MsgLen is the pending message length in words.
	MsgLen int
	// MsgCaps is the number of capabilities transferred in the
	// pending message.
	MsgCaps int

	// CSpaceRoot is the root CNode capability for cap decoding.
	CSpaceRoot Cap
	// VSpaceRoot is the thread's page directory.
	VSpaceRoot *PageDirectory

	// RestartPC models the restartable-system-call design (§2.1):
	// when an operation is preempted, the thread is left at the
	// syscall instruction so re-execution resumes the operation.
	RestartPC bool
	// ReplyPhaseDone records, across a restart, that the send phase
	// of a split ReplyRecv already completed — the future-work
	// preemption point between the send and receive phases (§6.1).
	ReplyPhaseDone bool
}

// EPState is the direction of an endpoint's queue.
type EPState uint8

// Endpoint queue states.
const (
	EPIdle EPState = iota
	EPSending
	EPReceiving
)

// Endpoint is an IPC endpoint: a badge-carrying rendezvous object with
// a queue of waiting senders or receivers (§3.3).
type Endpoint struct {
	Header
	Name  string
	State EPState
	// QHead/QTail: intrusive queue of waiting TCBs.
	QHead, QTail *TCB

	// Deactivated marks an endpoint under deletion: no new IPC may
	// start, guaranteeing forward progress of the preemptible
	// deletion (§3.3).
	Deactivated bool

	// Badged-abort resume state (§3.4). The paper stores these four
	// pieces of information on the endpoint — not in a continuation
	// — so invariants remain statements about objects:
	//   AbortCursor:  where in the queue the operation was
	//                 preempted (avoid repeating work);
	//   AbortEnd:     the last queue entry when the abort started
	//                 (new waiters do not extend the operation);
	//   AbortBadge:   the badge being removed;
	//   AbortWorker:  the thread performing the abort, so a second
	//                 operation can complete the first and notify
	//                 it.
	AbortCursor *TCB
	AbortEnd    *TCB
	AbortBadge  uint32
	AbortWorker *TCB
	// AbortActive marks an abort in progress.
	AbortActive bool
}

// QueueLen walks the endpoint queue and returns its length.
func (ep *Endpoint) QueueLen() int {
	n := 0
	for t := ep.QHead; t != nil; t = t.EPNext {
		n++
	}
	return n
}

// Notification is an asynchronous signalling object (seL4's async
// endpoint of the paper's era): signals OR their badges into a pending
// word; waiters consume the accumulated word. Interrupts are delivered
// through one (§1's real-time task wakeups).
type Notification struct {
	Header
	Name string
	// Pending accumulates signalled badges (bitwise OR).
	Pending uint32
	// QHead/QTail queue threads blocked waiting for a signal,
	// linked through the TCB's EPNext/EPPrev fields.
	QHead, QTail *TCB
}

// QueueLen walks the waiter queue and returns its length.
func (n *Notification) QueueLen() int {
	c := 0
	for t := n.QHead; t != nil; t = t.EPNext {
		c++
	}
	return c
}

// Frame is a physical memory frame mappable into address spaces.
type Frame struct {
	Header
	// Cleared tracks initialisation progress for preemptible object
	// creation (§3.5): creation clears object memory in 1 KiB
	// chunks before any other kernel state is touched.
	Cleared uint32
	// MappedIn and MappedVaddr record the (single) mapping of this
	// frame, maintained by the vspace managers.
	MappedIn    *PageDirectory
	MappedVaddr uint32
}

// PTEntries is the number of entries in a second-level page table.
const PTEntries = 256

// PageTable is a second-level page table (1 KiB on ARMv6, 256
// entries).
type PageTable struct {
	Header
	// Entries maps page index to the mapped frame.
	Entries [PTEntries]*Frame
	// Shadow holds the back-pointers from mapping to frame cap slot
	// in the shadow-page-table design (§3.6). nil in the ASID
	// design.
	Shadow []*Slot
	// LowestMapped is the index of the lowest mapped entry, stored
	// so a preempted deletion resumes without re-scanning (§3.6).
	LowestMapped int
	// Parent is the page directory this table is mapped into.
	Parent      *PageDirectory
	ParentIndex int
}

// PDEntries is the number of top-level page-directory entries: 4096 on
// ARMv6, each covering 1 MiB of virtual address space. The top 256
// entries (0xF00–0xFFF) are the kernel window copied into every new
// page directory (§3.5).
const PDEntries = 4096

// PageDirectory is a top-level page table (16 KiB on ARMv6).
type PageDirectory struct {
	Header
	// Tables maps directory index to second-level tables.
	Tables Sparse[PageTable]
	// Shadow back-pointers per directory entry (shadow design;
	// empty in the ASID design).
	Shadow Sparse[Slot]
	// KernelWindowCopied marks the global kernel mappings present —
	// an invariant that must hold whenever the kernel exits (§3.5).
	KernelWindowCopied bool
	// ASID is the address-space identifier (ASID design only).
	ASID uint32
	// LowestMapped is the lowest mapped directory index, for
	// preemptible deletion.
	LowestMapped int
}

// ASIDPoolSize is the number of address spaces one ASID pool covers
// (§3.6).
const ASIDPoolSize = 1024

// ASIDPool is a second-level ASID table entry block.
type ASIDPool struct {
	Header
	Entries [ASIDPoolSize]*PageDirectory
}

// Untyped is a region of untyped memory from which objects are retyped
// (§3: "almost all allocation policies are delegated to userspace").
type Untyped struct {
	Header
	// Watermark is the offset of the first free byte.
	Watermark uint32
	// Children are the live objects retyped from this region.
	Children []Object
}

// FreeBytes returns the unretyped remainder.
func (u *Untyped) FreeBytes() uint32 { return u.Size() - u.Watermark }

func (u *Untyped) String() string {
	return fmt.Sprintf("untyped[%#x..%#x) watermark %#x", u.PAddr, u.End(), u.PAddr+u.Watermark)
}
