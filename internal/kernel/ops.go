package kernel

import (
	"fmt"

	"verikern/internal/ipc"
	"verikern/internal/kobj"
	"verikern/internal/ktime"
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

// decodeAs is decodeCap for a system call that works on one capability
// type; op names the call in the error. A cap of another type is
// refused before any cycle is charged.
func (k *Kernel) decodeAs(t *kobj.TCB, addr uint32, want kobj.CapType, op string) (*kobj.Slot, int, error) {
	slot, levels, err := k.decodeCap(t, addr)
	if err != nil {
		return nil, 0, err
	}
	if slot.Cap.Type != want {
		return nil, 0, fmt.Errorf("kernel: %s on %v cap", op, slot.Cap.Type)
	}
	return slot, levels, nil
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
	slot, _, err := k.decodeAs(t, srcAddr, kobj.CapEndpoint, "mint")
	if err != nil {
		return 0, err
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
// decodes of the §6.1 worst case). A message longer than
// kobj.MaxMsgWords, which the image's transfer loop is bounded by, is
// refused before any cycle is charged.
func (k *Kernel) Send(t *kobj.TCB, capAddr uint32, msgLen int, capsToSend []uint32, call bool) error {
	if msgLen < 0 || msgLen > kobj.MaxMsgWords {
		return fmt.Errorf("kernel: message of %d words, want 0 to %d", msgLen, kobj.MaxMsgWords)
	}
	slot, levels, err := k.decodeAs(t, capAddr, kobj.CapEndpoint, "send")
	if err != nil {
		return err
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

	return k.runRestartable(t, levels, obs.OpSend, func() ktime.Outcome {
		if k.cfg.Fastpath && len(capsToSend) == 0 && !call && ipc.FastpathOK(ep, t, msgLen, 0) {
			r := ipc.Fastpath(&k.ipcEnv, t, ep, badge, msgLen)
			k.stats.FastpathIPCs++
			k.switchTo(r)
			return ktime.Done
		}
		k.stats.SlowpathIPCs++
		k.clock.Advance(uint64(capLevels) * CostDecodeLevel)
		out := k.finishIPC(ipc.Send(&k.ipcEnv, t, ep, badge, msgLen, len(capsToSend), call))
		if out == ktime.Done && k.current != nil && !k.current.State.Runnable() {
			k.reschedule()
		}
		return out
	})
}

// Call is Send with call semantics: the sender blocks awaiting a
// reply.
func (k *Kernel) Call(t *kobj.TCB, capAddr uint32, msgLen int, capsToSend []uint32) error {
	return k.Send(t, capAddr, msgLen, capsToSend, true)
}

// Recv waits for a message on the endpoint cap at capAddr.
func (k *Kernel) Recv(t *kobj.TCB, capAddr uint32) error {
	slot, levels, err := k.decodeAs(t, capAddr, kobj.CapEndpoint, "recv")
	if err != nil {
		return err
	}
	ep := slot.Cap.Endpoint()
	return k.runRestartable(t, levels, obs.OpRecv, func() ktime.Outcome {
		return k.finishIPC(ipc.Recv(&k.ipcEnv, t, ep))
	})
}

// finishIPC completes one IPC step inside a system call body: a failed
// step fails the call, a blocked caller gives up the CPU, and a partner
// chosen for a direct switch runs.
func (k *Kernel) finishIPC(out ktime.Outcome, sw *kobj.TCB) ktime.Outcome {
	switch out {
	case ktime.Failed:
		return ktime.Failed
	case ktime.Blocked:
		k.reschedule()
		return ktime.Done
	}
	if sw != nil {
		k.switchTo(sw)
	}
	return ktime.Done
}

// ReplyRecv is the atomic send-receive of §6.1: reply to the current
// caller and wait for the next request in one kernel entry. With
// Config.SplitSendReceive, the future-work preemption point between
// the phases is active: the reply phase's completion is recorded on
// the server TCB so a restart resumes directly into the receive phase.
//
// A caller the reply chose for a direct switch is runnable but not
// queued. It runs next if the receive phase blocks the server;
// otherwise (the receive completes, or the call is preempted between
// the phases) it is queued.
func (k *Kernel) ReplyRecv(t *kobj.TCB, capAddr uint32) error {
	slot, levels, err := k.decodeAs(t, capAddr, kobj.CapEndpoint, "replyrecv")
	if err != nil {
		return err
	}
	ep := slot.Cap.Endpoint()
	return k.runRestartable(t, levels, obs.OpReplyRecv, func() ktime.Outcome {
		var caller *kobj.TCB
		if !t.ReplyPhaseDone {
			var out ktime.Outcome
			if out, caller = ipc.Reply(&k.ipcEnv, t); out == ktime.Failed {
				return ktime.Failed
			}
			if k.cfg.SplitSendReceive {
				t.ReplyPhaseDone = true
				if k.preempt() {
					k.enqueue(caller)
					return ktime.Preempted
				}
			}
		}
		t.ReplyPhaseDone = false
		out, sw := ipc.Recv(&k.ipcEnv, t, ep)
		if caller != nil && out == ktime.Blocked {
			k.switchTo(caller)
			return ktime.Done
		}
		k.enqueue(caller)
		return k.finishIPC(out, sw)
	})
}

// enqueue queues a runnable thread that is neither queued nor current;
// a nil thread is ignored.
func (k *Kernel) enqueue(t *kobj.TCB) {
	if t != nil {
		k.clock.Advance(k.sched.Enqueue(t))
	}
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
	return k.runRestartable(t, levels, obs.OpDelete, func() ktime.Outcome {
		if slot.IsEmpty() {
			return ktime.Done // deleted by an earlier (preempted) pass
		}
		if slot.Cap.Type == kobj.CapEndpoint && k.objects.IsFinal(slot) {
			ep := slot.Cap.Endpoint()
			if out := ipc.DeleteEndpoint(&k.ipcEnv, ep); out != ktime.Done {
				return out
			}
			k.objects.ClearSlot(slot)
			k.objects.Destroy(ep)
			return ktime.Done
		}
		k.objects.ClearSlot(slot)
		return ktime.Done
	})
}

// RevokeBadge revokes a badge on the endpoint at capAddr (§3.4): every
// derived cap carrying the badge is deleted (one per preemption
// interval), then every pending IPC using the badge is aborted through
// the endpoint's preemptible abort walk.
func (k *Kernel) RevokeBadge(t *kobj.TCB, capAddr uint32, badge uint32) error {
	slot, levels, err := k.decodeAs(t, capAddr, kobj.CapEndpoint, "badge revoke")
	if err != nil {
		return err
	}
	ep := slot.Cap.Endpoint()
	return k.runRestartable(t, levels, obs.OpBadgeRevoke, func() ktime.Outcome {
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
				return ktime.Preempted
			}
		}
		// Phase 2: abort pending IPCs with the badge.
		return ipc.AbortBadged(&k.ipcEnv, t, ep, badge)
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
	err = k.runRestartable(t, 1, obs.OpRetype, func() ktime.Outcome {
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
				return ktime.Preempted
			}
		}
		// One short atomic pass: create the objects and install
		// their caps.
		delete(k.pendingClear, u)
		k.clock.Advance(CostRetypeBookkeeping)
		objs, rerr := k.objects.Retype(u, ot, param, count)
		if rerr != nil {
			return ktime.Failed
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
				return ktime.Failed
			}
			addrs = append(addrs, addr)
			// Page directories additionally receive the
			// kernel window — non-preemptible (§3.5), the
			// 20 µs floor of the paper's latency budget.
			if pd, ok := o.(*kobj.PageDirectory); ok {
				if k.vspace.InitPD(&k.ipcEnv.Env, pd) != nil {
					return ktime.Failed
				}
			}
		}
		return ktime.Done
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
	slot, _, err := k.decodeAs(t, pdAddr, kobj.CapPageDirectory, "assign")
	if err != nil {
		return err
	}
	t.VSpaceRoot = slot.Cap.Obj.(*kobj.PageDirectory)
	return nil
}

// MapPageTable maps the page table at ptAddr into t's address space to
// cover vaddr.
func (k *Kernel) MapPageTable(t *kobj.TCB, ptAddr uint32, vaddr uint32) error {
	slot, levels, err := k.decodeAs(t, ptAddr, kobj.CapPageTable, "page-table map")
	if err != nil {
		return err
	}
	if t.VSpaceRoot == nil {
		return fmt.Errorf("kernel: page-table map without an address space")
	}
	pt := slot.Cap.Obj.(*kobj.PageTable)
	var mapErr error
	err = k.runRestartable(t, levels, obs.OpMapTable, func() ktime.Outcome {
		mapErr = k.vspace.MapTable(&k.ipcEnv.Env, t.VSpaceRoot, int(vaddr>>20), pt, slot)
		if mapErr != nil {
			return ktime.Failed
		}
		return ktime.Done
	})
	if mapErr != nil {
		return mapErr
	}
	return err
}

// MapFrame maps the frame at frameAddr into t's address space at
// vaddr.
func (k *Kernel) MapFrame(t *kobj.TCB, frameAddr uint32, vaddr uint32) error {
	slot, levels, err := k.decodeAs(t, frameAddr, kobj.CapFrame, "frame map")
	if err != nil {
		return err
	}
	if t.VSpaceRoot == nil {
		return fmt.Errorf("kernel: frame map without an address space")
	}
	f := slot.Cap.Frame()
	var mapErr error
	err = k.runRestartable(t, levels, obs.OpMapFrame, func() ktime.Outcome {
		mapErr = k.vspace.MapFrame(&k.ipcEnv.Env, t.VSpaceRoot, vaddr, f, slot)
		if mapErr != nil {
			return ktime.Failed
		}
		return ktime.Done
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
	err = k.runRestartable(t, levels, obs.OpUnmapFrame, func() ktime.Outcome {
		unmapErr = k.vspace.UnmapFrame(&k.ipcEnv.Env, slot)
		if unmapErr != nil {
			return ktime.Failed
		}
		return ktime.Done
	})
	if unmapErr != nil {
		return unmapErr
	}
	return err
}

// DeleteVSpace deletes the address space at pdAddr: O(1)-lazy under
// the ASID design, a preemptible walk under shadow page tables (§3.6).
func (k *Kernel) DeleteVSpace(t *kobj.TCB, pdAddr uint32) error {
	slot, levels, err := k.decodeAs(t, pdAddr, kobj.CapPageDirectory, "vspace delete")
	if err != nil {
		return err
	}
	pd := slot.Cap.Obj.(*kobj.PageDirectory)
	return k.runRestartable(t, levels, obs.OpVSpaceDelete, func() ktime.Outcome {
		if out := k.vspace.DeletePD(&k.ipcEnv.Env, pd); out != ktime.Done {
			return out
		}
		k.objects.ClearSlot(slot)
		k.objects.Destroy(pd)
		for _, o := range k.objects.Objects() {
			if tcb, ok := o.(*kobj.TCB); ok && tcb.VSpaceRoot == pd {
				tcb.VSpaceRoot = nil
			}
		}
		return ktime.Done
	})
}
