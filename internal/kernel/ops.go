package kernel

import (
	"fmt"

	"verikern/internal/ipc"
	"verikern/internal/kobj"
	"verikern/internal/obs"
	"verikern/internal/vspace"
)

// decodeCap resolves a capability address in t's capability space.
func (k *Kernel) decodeCap(t *kobj.TCB, addr uint32) (*kobj.Slot, int, error) {
	res, err := kobj.Decode(t.CSpaceRoot, addr)
	if err != nil {
		// A failed decode still costs a kernel round trip.
		k.clock.Advance(CostKernelEntry + CostSyscallDecode + CostKernelExit)
		return nil, 0, err
	}
	return res.Slot, res.Levels, nil
}

// InstallCap places a capability into the first free root-CNode slot
// and returns its capability address. parent links the derivation
// tree.
func (k *Kernel) InstallCap(c kobj.Cap, parent *kobj.Slot) (uint32, *kobj.Slot, error) {
	for i := 0; i < k.rootCNode.NumSlots(); i++ {
		s := k.rootCNode.Slot(i)
		if s.IsEmpty() {
			k.objects.SetCap(s, c, parent)
			return uint32(i), s, nil
		}
	}
	return 0, nil, fmt.Errorf("kernel: root CNode full")
}

// MintBadgedCap derives a badged endpoint capability from the cap at
// srcAddr and installs it, returning the new cap's address. Badged
// caps are MDB children of their unbadged original, which is what
// badge revocation walks (§3.4).
func (k *Kernel) MintBadgedCap(t *kobj.TCB, srcAddr uint32, badge uint32) (uint32, error) {
	slot, _, err := k.decodeCap(t, srcAddr)
	if err != nil {
		return 0, err
	}
	if slot.Cap.Type != kobj.CapEndpoint {
		return 0, fmt.Errorf("kernel: mint from non-endpoint cap")
	}
	c := slot.Cap
	c.Badge = badge
	addr, _, err := k.InstallCap(c, slot)
	return addr, err
}

// --- IPC system calls ---

// Send performs an IPC send (optionally a call) through the endpoint
// cap at capAddr, transferring msgLen words and granting the caps named
// by capsToSend (each decoded in the sender's cap space — the repeated
// decodes of the §6.1 worst case).
func (k *Kernel) Send(t *kobj.TCB, capAddr uint32, msgLen int, capsToSend []uint32, call bool) error {
	slot, levels, err := k.decodeCap(t, capAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapEndpoint {
		return fmt.Errorf("kernel: send on %v cap", slot.Cap.Type)
	}
	ep := slot.Cap.Endpoint()
	badge := slot.Cap.Badge

	// Pre-validate transferred caps (pure); per-attempt decode cost
	// is charged inside the body.
	capLevels := 0
	for _, ca := range capsToSend {
		res, err := kobj.Decode(t.CSpaceRoot, ca)
		if err != nil {
			return fmt.Errorf("kernel: transferring cap %#x: %w", ca, err)
		}
		capLevels += res.Levels
	}

	return k.runRestartable(t, levels, obs.OpSend, func() opOutcome {
		if k.cfg.Fastpath && len(capsToSend) == 0 && !call && ipc.FastpathOK(ep, t, msgLen, 0) {
			r := ipc.Fastpath(&k.ipcEnv, t, ep, badge, msgLen)
			k.stats.FastpathIPCs++
			k.switchTo(r)
			return opDone
		}
		k.stats.SlowpathIPCs++
		k.clock.Advance(uint64(capLevels) * CostDecodeLevel)
		out, sw := ipc.Send(&k.ipcEnv, t, ep, badge, msgLen, len(capsToSend), call)
		switch out {
		case ipc.Failed:
			return opFailed
		case ipc.Blocked:
			k.reschedule()
			return opDone
		}
		if sw != nil {
			k.switchTo(sw)
		}
		if k.current != nil && !k.current.State.Runnable() {
			k.reschedule()
		}
		return opDone
	})
}

// Call is Send with call semantics: the sender blocks awaiting a
// reply.
func (k *Kernel) Call(t *kobj.TCB, capAddr uint32, msgLen int, capsToSend []uint32) error {
	return k.Send(t, capAddr, msgLen, capsToSend, true)
}

// Recv waits for a message on the endpoint cap at capAddr.
func (k *Kernel) Recv(t *kobj.TCB, capAddr uint32) error {
	slot, levels, err := k.decodeCap(t, capAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapEndpoint {
		return fmt.Errorf("kernel: recv on %v cap", slot.Cap.Type)
	}
	ep := slot.Cap.Endpoint()
	return k.runRestartable(t, levels, obs.OpRecv, func() opOutcome {
		out, sw := ipc.Recv(&k.ipcEnv, t, ep)
		switch out {
		case ipc.Failed:
			return opFailed
		case ipc.Blocked:
			k.reschedule()
			return opDone
		}
		if sw != nil {
			k.switchTo(sw)
		}
		return opDone
	})
}

// ReplyRecv is the atomic send-receive of §6.1: reply to the current
// caller and wait for the next request in one kernel entry. With
// Config.SplitSendReceive, the future-work preemption point between
// the phases is active: the reply phase's completion is recorded on
// the server TCB so a restart resumes directly into the receive phase.
func (k *Kernel) ReplyRecv(t *kobj.TCB, capAddr uint32) error {
	slot, levels, err := k.decodeCap(t, capAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapEndpoint {
		return fmt.Errorf("kernel: replyrecv on %v cap", slot.Cap.Type)
	}
	ep := slot.Cap.Endpoint()
	return k.runRestartable(t, levels, obs.OpReplyRecv, func() opOutcome {
		if !t.ReplyPhaseDone {
			if out, _ := ipc.Reply(&k.ipcEnv, t); out == ipc.Failed {
				return opFailed
			}
			if k.cfg.SplitSendReceive {
				t.ReplyPhaseDone = true
				if k.preempt() {
					return opPreempted
				}
			}
		}
		t.ReplyPhaseDone = false
		out, sw := ipc.Recv(&k.ipcEnv, t, ep)
		switch out {
		case ipc.Failed:
			return opFailed
		case ipc.Blocked:
			k.reschedule()
			return opDone
		}
		if sw != nil {
			k.switchTo(sw)
		}
		return opDone
	})
}

// --- Deletion and revocation ---

// DeleteCap deletes the capability at capAddr. Deleting the final cap
// to an endpoint drains its queue with a preemption point per waiter
// (§3.3) and destroys the object.
func (k *Kernel) DeleteCap(t *kobj.TCB, capAddr uint32) error {
	slot, levels, err := k.decodeCap(t, capAddr)
	if err != nil {
		return err
	}
	return k.runRestartable(t, levels, obs.OpDelete, func() opOutcome {
		if slot.IsEmpty() {
			return opDone // deleted by an earlier (preempted) pass
		}
		if slot.Cap.Type == kobj.CapEndpoint && k.objects.IsFinal(slot) {
			ep := slot.Cap.Endpoint()
			switch ipc.DeleteEndpoint(&k.ipcEnv, ep) {
			case ipc.Preempted:
				return opPreempted
			case ipc.Failed:
				return opFailed
			}
			k.objects.ClearSlot(slot)
			k.objects.Destroy(ep)
			return opDone
		}
		k.objects.ClearSlot(slot)
		return opDone
	})
}

// RevokeBadge revokes a badge on the endpoint at capAddr (§3.4): every
// derived cap carrying the badge is deleted (one per preemption
// interval), then every pending IPC using the badge is aborted through
// the endpoint's preemptible abort walk.
func (k *Kernel) RevokeBadge(t *kobj.TCB, capAddr uint32, badge uint32) error {
	slot, levels, err := k.decodeCap(t, capAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapEndpoint {
		return fmt.Errorf("kernel: badge revoke on %v cap", slot.Cap.Type)
	}
	ep := slot.Cap.Endpoint()
	return k.runRestartable(t, levels, obs.OpBadgeRevoke, func() opOutcome {
		// Phase 1: prevent new IPC with the badge by deleting
		// derived badged caps, one per preemption interval.
		for {
			var victim *kobj.Slot
			for _, c := range k.objects.Children(slot) {
				if c.Cap.Badge == badge {
					victim = c
					break
				}
			}
			if victim == nil {
				break
			}
			k.clock.Advance(CostDecodeLevel)
			k.objects.ClearSlot(victim)
			if k.preempt() {
				return opPreempted
			}
		}
		// Phase 2: abort pending IPCs with the badge.
		switch ipc.AbortBadged(&k.ipcEnv, t, ep, badge) {
		case ipc.Preempted:
			return opPreempted
		case ipc.Failed:
			return opFailed
		}
		return opDone
	})
}

// --- Object creation (§3.5) ---

// CostRetypeBookkeeping is the short atomic pass that updates kernel
// state after object memory is cleared.
const CostRetypeBookkeeping = 260

// CreateObjects retypes count objects of the given type from the root
// untyped, clearing their memory first. With preemption points enabled
// the clearing proceeds in 1 KiB chunks with a preemption point after
// each (§3.5: smaller multiples would not help while the kernel-window
// copy is non-preemptible); the book-keeping then runs in one short
// atomic pass. Returns the new objects' cap addresses.
func (k *Kernel) CreateObjects(t *kobj.TCB, ot kobj.ObjType, param uint8, count int) ([]uint32, error) {
	sizeBits, err := kobj.ObjectSizeBits(ot, param)
	if err != nil {
		return nil, err
	}
	total := uint32(count) << sizeBits
	u := k.rootUntyped

	var addrs []uint32
	err = k.runRestartable(t, 1, obs.OpRetype, func() opOutcome {
		prog := k.pendingClear[u]
		if prog == nil {
			prog = &clearProgress{remaining: total}
			k.pendingClear[u] = prog
		}
		// Clear object memory before any kernel state changes.
		chunkSize := k.cfg.EffectiveClearChunkBytes()
		for prog.remaining > 0 {
			chunk := chunkSize
			if prog.remaining < chunk {
				chunk = prog.remaining
			}
			k.clock.Advance(uint64(vspace.CostClear1K) * uint64(chunk) / 1024)
			prog.remaining -= chunk
			k.tracer.Emit(obs.KindCreateChunk, k.clock.Now(), uint64(chunk), uint64(prog.remaining))
			if prog.remaining > 0 && k.preempt() {
				return opPreempted
			}
		}
		// One short atomic pass: create the objects and install
		// their caps.
		delete(k.pendingClear, u)
		k.clock.Advance(CostRetypeBookkeeping)
		objs, rerr := k.objects.Retype(u, ot, param, count)
		if rerr != nil {
			return opFailed
		}
		parent := k.rootUntypedSlot()
		for _, o := range objs {
			c := kobj.Cap{Obj: o, Rights: kobj.RightsAll}
			switch ot {
			case kobj.TypeTCB:
				c.Type = kobj.CapTCB
			case kobj.TypeEndpoint:
				c.Type = kobj.CapEndpoint
			case kobj.TypeNotification:
				c.Type = kobj.CapNotification
			case kobj.TypeCNode:
				c.Type = kobj.CapCNode
			case kobj.TypeFrame:
				c.Type = kobj.CapFrame
			case kobj.TypePageTable:
				c.Type = kobj.CapPageTable
			case kobj.TypePageDirectory:
				c.Type = kobj.CapPageDirectory
			case kobj.TypeASIDPool:
				c.Type = kobj.CapASIDPool
			case kobj.TypeUntyped:
				c.Type = kobj.CapUntyped
			}
			addr, _, ierr := k.InstallCap(c, parent)
			if ierr != nil {
				return opFailed
			}
			addrs = append(addrs, addr)
			// Page directories additionally receive the
			// kernel window — non-preemptible (§3.5), the
			// 20 µs floor of the paper's latency budget.
			if pd, ok := o.(*kobj.PageDirectory); ok {
				if k.vspace.InitPD(&k.vsEnv, pd) != nil {
					return opFailed
				}
			}
		}
		return opDone
	})
	if err != nil {
		return nil, err
	}
	return addrs, nil
}

// rootUntypedSlot finds the boot untyped's cap slot (slot 0 of the
// root CNode, installed at boot).
func (k *Kernel) rootUntypedSlot() *kobj.Slot {
	s := k.rootCNode.Slot(0)
	if s.IsEmpty() {
		return nil
	}
	return s
}

// --- Address-space system calls (§3.6) ---

// AssignVSpace sets a thread's address space.
func (k *Kernel) AssignVSpace(t *kobj.TCB, pdAddr uint32) error {
	slot, _, err := k.decodeCap(t, pdAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapPageDirectory {
		return fmt.Errorf("kernel: assign of %v cap", slot.Cap.Type)
	}
	t.VSpaceRoot = slot.Cap.Obj.(*kobj.PageDirectory)
	return nil
}

// MapPageTable maps the page table at ptAddr into t's address space to
// cover vaddr.
func (k *Kernel) MapPageTable(t *kobj.TCB, ptAddr uint32, vaddr uint32) error {
	slot, levels, err := k.decodeCap(t, ptAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapPageTable || t.VSpaceRoot == nil {
		return fmt.Errorf("kernel: bad page-table map")
	}
	pt := slot.Cap.Obj.(*kobj.PageTable)
	var mapErr error
	err = k.runRestartable(t, levels, obs.OpMapTable, func() opOutcome {
		mapErr = k.vspace.MapTable(&k.vsEnv, t.VSpaceRoot, int(vaddr>>20), pt, slot)
		if mapErr != nil {
			return opFailed
		}
		return opDone
	})
	if mapErr != nil {
		return mapErr
	}
	return err
}

// MapFrame maps the frame at frameAddr into t's address space at
// vaddr.
func (k *Kernel) MapFrame(t *kobj.TCB, frameAddr uint32, vaddr uint32) error {
	slot, levels, err := k.decodeCap(t, frameAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapFrame || t.VSpaceRoot == nil {
		return fmt.Errorf("kernel: bad frame map")
	}
	f := slot.Cap.Frame()
	var mapErr error
	err = k.runRestartable(t, levels, obs.OpMapFrame, func() opOutcome {
		mapErr = k.vspace.MapFrame(&k.vsEnv, t.VSpaceRoot, vaddr, f, slot)
		if mapErr != nil {
			return opFailed
		}
		return opDone
	})
	if mapErr != nil {
		return mapErr
	}
	return err
}

// UnmapFrame removes the mapping of the frame cap at frameAddr.
func (k *Kernel) UnmapFrame(t *kobj.TCB, frameAddr uint32) error {
	slot, levels, err := k.decodeCap(t, frameAddr)
	if err != nil {
		return err
	}
	var unmapErr error
	err = k.runRestartable(t, levels, obs.OpUnmapFrame, func() opOutcome {
		unmapErr = k.vspace.UnmapFrame(&k.vsEnv, slot)
		if unmapErr != nil {
			return opFailed
		}
		return opDone
	})
	if unmapErr != nil {
		return unmapErr
	}
	return err
}

// DeleteVSpace deletes the address space at pdAddr: O(1)-lazy under
// the ASID design, a preemptible walk under shadow page tables (§3.6).
func (k *Kernel) DeleteVSpace(t *kobj.TCB, pdAddr uint32) error {
	slot, levels, err := k.decodeCap(t, pdAddr)
	if err != nil {
		return err
	}
	if slot.Cap.Type != kobj.CapPageDirectory {
		return fmt.Errorf("kernel: vspace delete of %v cap", slot.Cap.Type)
	}
	pd := slot.Cap.Obj.(*kobj.PageDirectory)
	return k.runRestartable(t, levels, obs.OpVSpaceDelete, func() opOutcome {
		switch k.vspace.DeletePD(&k.vsEnv, pd) {
		case vspace.Preempted:
			return opPreempted
		case vspace.Failed:
			return opFailed
		}
		k.objects.ClearSlot(slot)
		k.objects.Destroy(pd)
		for _, o := range k.objects.Objects() {
			if tcb, ok := o.(*kobj.TCB); ok && tcb.VSpaceRoot == pd {
				tcb.VSpaceRoot = nil
			}
		}
		return opDone
	})
}
