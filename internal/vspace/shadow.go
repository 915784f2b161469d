package vspace

import (
	"fmt"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
)

// shadowManager is the replacement design (§3.6, Fig. 5): every page
// table and page directory carries a shadow array of back-pointers from
// each mapping to the frame-cap slot that created it, stored adjacent
// to the table for fast lookup. All mapping operations eagerly maintain
// the back-pointers, so no dangling references can exist and ASIDs
// disappear entirely. Address-space deletion becomes a walk — but a
// preemptible one, resuming from the stored lowest-mapped index.
type shadowManager struct {
	spaces []*kobj.PageDirectory
}

func (m *shadowManager) Design() Design                 { return ShadowDesign }
func (m *shadowManager) VSpaces() []*kobj.PageDirectory { return m.spaces }

// InitPD copies the kernel window; the shadow array starts empty —
// constant-time setup; no ASID search (§3.6's latency win on the
// allocation side).
func (m *shadowManager) InitPD(e *ktime.Env, pd *kobj.PageDirectory) error {
	e.Clock.Advance(CostKernelWindowCopy)
	pd.KernelWindowCopied = true
	m.spaces = append(m.spaces, pd)
	return nil
}

func (m *shadowManager) MapTable(e *ktime.Env, pd *kobj.PageDirectory, idx int, pt *kobj.PageTable, slot *kobj.Slot) error {
	if idx < 0 || idx >= kobj.PDEntries || pd.Tables.Get(idx) != nil {
		return fmt.Errorf("vspace: bad or occupied directory index %d", idx)
	}
	e.Clock.Advance(2 * CostPTEntry) // entry + shadow entry
	pt.Shadow = make([]*kobj.Slot, kobj.PTEntries)
	pd.Tables.Set(idx, pt)
	pd.Shadow.Set(idx, slot)
	pt.Parent = pd
	pt.ParentIndex = idx
	if idx < pd.LowestMapped {
		pd.LowestMapped = idx
	}
	return nil
}

// MapFrame installs the mapping and the shadow back-pointer from the
// page-table entry to the frame-cap slot.
func (m *shadowManager) MapFrame(e *ktime.Env, pd *kobj.PageDirectory, vaddr uint32, f *kobj.Frame, slot *kobj.Slot) error {
	if !validVaddr(vaddr) {
		return fmt.Errorf("vspace: vaddr %#x in kernel window", vaddr)
	}
	di, pi := split(vaddr)
	pt := pd.Tables.Get(di)
	if pt == nil {
		return fmt.Errorf("vspace: no page table for %#x", vaddr)
	}
	if pt.Entries[pi] != nil {
		return fmt.Errorf("vspace: %#x already mapped", vaddr)
	}
	e.Clock.Advance(CostMapFrame + CostPTEntry) // mapping + shadow write
	pt.Entries[pi] = f
	pt.Shadow[pi] = slot
	if pi < pt.LowestMapped {
		pt.LowestMapped = pi
	}
	f.MappedIn = pd
	f.MappedVaddr = vaddr
	slot.Cap.MappedVaddr = vaddr
	return nil
}

// UnmapFrame removes the mapping and eagerly clears both directions:
// no stale state can survive (the design's core obligation).
func (m *shadowManager) UnmapFrame(e *ktime.Env, slot *kobj.Slot) error {
	if slot.Cap.Type != kobj.CapFrame {
		return fmt.Errorf("vspace: unmap of non-frame cap")
	}
	f := slot.Cap.Frame()
	if f.MappedIn == nil {
		return nil // not mapped
	}
	di, pi := split(f.MappedVaddr)
	pt := f.MappedIn.Tables.Get(di)
	if pt == nil || pt.Entries[pi] != f || pt.Shadow[pi] != slot {
		return fmt.Errorf("vspace: shadow back-pointer inconsistent for %#x", f.MappedVaddr)
	}
	e.Clock.Advance(2 * CostPTEntry)
	pt.Entries[pi] = nil
	pt.Shadow[pi] = nil
	f.MappedIn = nil
	f.MappedVaddr = 0
	slot.Cap.MappedVaddr = 0
	return nil
}

// DeletePD walks the space unmapping every entry, with a preemption
// point after each page-table entry (§3.6: "the natural preemption
// point in the deletion path is to preempt after unmapping each entry").
// The lowest-mapped indices persist across preemption so resumed
// deletions never re-scan (§3.6's forward-progress refinement). An
// unmapped directory entry costs no cycles and holds no preemption
// point, so the walk jumps straight to the next mapped one.
func (m *shadowManager) DeletePD(e *ktime.Env, pd *kobj.PageDirectory) ktime.Outcome {
	for {
		pd.LowestMapped = pd.Tables.Next(pd.LowestMapped)
		if pd.LowestMapped >= kobj.PDEntries {
			break
		}
		di := pd.LowestMapped
		pt := pd.Tables.Get(di)
		for pt.LowestMapped < kobj.PTEntries {
			pi := pt.LowestMapped
			f := pt.Entries[pi]
			if f == nil {
				pt.LowestMapped++
				continue
			}
			slot := pt.Shadow[pi]
			e.Clock.Advance(2 * CostPTEntry)
			pt.Entries[pi] = nil
			pt.Shadow[pi] = nil
			f.MappedIn = nil
			f.MappedVaddr = 0
			if slot != nil {
				slot.Cap.MappedVaddr = 0
			}
			pt.LowestMapped++
			if e.Preempt() {
				return ktime.Preempted
			}
		}
		// Table fully unmapped: detach it from the directory.
		e.Clock.Advance(2 * CostPTEntry)
		pd.Tables.Set(di, nil)
		pd.Shadow.Set(di, nil)
		pt.Parent = nil
		pd.LowestMapped++
		if e.Preempt() {
			return ktime.Preempted
		}
	}
	e.Clock.Advance(CostTLBFlush)
	for i, s := range m.spaces {
		if s == pd {
			m.spaces = append(m.spaces[:i], m.spaces[i+1:]...)
			break
		}
	}
	return ktime.Done
}
