package kernel

import (
	"fmt"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/obs"
)

// This file implements the CNode-invocation system calls: copying,
// moving and revoking capabilities. Revocation deletes the entire
// derivation subtree of a capability and is one of the kernel's
// canonical long-running operations — the incremental-consistency
// design (§2.1) makes each child deletion a constant-time step with a
// preemption point after it.

// CostCapOp is the fixed cost of one capability copy/move/delete.
const CostCapOp = 140

// CopyCap derives a copy of the capability at srcAddr into a fresh
// root-CNode slot (an MDB child of the source), optionally masking
// rights. Returns the new cap's address.
func (k *Kernel) CopyCap(t *kobj.TCB, srcAddr uint32, rights kobj.Rights) (uint32, error) {
	slot, levels, err := k.decodeCap(t, srcAddr)
	if err != nil {
		return 0, err
	}
	if slot.IsEmpty() {
		return 0, fmt.Errorf("kernel: copy from empty slot")
	}
	var addr uint32
	err = k.runRestartable(t, levels, obs.OpCapOp, func() ktime.Outcome {
		k.clock.Advance(CostCapOp)
		c := slot.Cap
		c.Rights &= rights
		a, _, ierr := k.InstallCap(c, slot)
		if ierr != nil {
			return ktime.Failed
		}
		addr = a
		return ktime.Done
	})
	return addr, err
}

// MoveCap relocates the capability at srcAddr to a fresh slot,
// preserving its position in the derivation tree, and empties the
// source. Returns the new address.
func (k *Kernel) MoveCap(t *kobj.TCB, srcAddr uint32) (uint32, error) {
	slot, levels, err := k.decodeCap(t, srcAddr)
	if err != nil {
		return 0, err
	}
	if slot.IsEmpty() {
		return 0, fmt.Errorf("kernel: move from empty slot")
	}
	var addr uint32
	err = k.runRestartable(t, levels, obs.OpCapOp, func() ktime.Outcome {
		k.clock.Advance(CostCapOp)
		// The first empty root slot takes the old one's place in
		// the MDB.
		var dest *kobj.Slot
		for i := 0; i < k.rootCNode.NumSlots(); i++ {
			s := k.rootCNode.Slot(i)
			if s.IsEmpty() && s != slot {
				dest = s
				addr = uint32(i)
				break
			}
		}
		if dest == nil {
			return ktime.Failed
		}
		k.objects.MoveSlot(dest, slot)
		return ktime.Done
	})
	return addr, err
}

// Revoke deletes every capability derived from the one at capAddr,
// one child per preemption interval (the revocation path all of §3's
// deletion work funnels through). The cap itself survives; only its
// subtree is destroyed.
func (k *Kernel) Revoke(t *kobj.TCB, capAddr uint32) error {
	slot, levels, err := k.decodeCap(t, capAddr)
	if err != nil {
		return err
	}
	if slot.IsEmpty() {
		return fmt.Errorf("kernel: revoke of empty slot")
	}
	return k.runRestartable(t, levels, obs.OpRevoke, func() ktime.Outcome {
		for {
			k.clock.Advance(CostCapOp)
			remaining := k.objects.RevokeStep(slot)
			if !remaining {
				return ktime.Done
			}
			if k.preempt() {
				return ktime.Preempted
			}
		}
	})
}
