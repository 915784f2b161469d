package vspace

import (
	"fmt"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
)

// asidManager is the original seL4 design (§3.6, Fig. 4): frame caps
// hold an ASID resolved through a sparse two-level lookup table.
// Dangling frame caps are harmless — every use re-validates the mapping
// through the table — so address-space deletion is O(1). The price is
// paid elsewhere: allocating an ASID probes up to 1024 pool entries and
// deleting a pool iterates up to 1024 address spaces, and neither loop
// has a natural preemption point.
type asidManager struct {
	// pools holds up to 256 first-level entries of 1024 ASIDs each
	// (the 18-bit ASID space).
	pools  []*kobj.ASIDPool
	spaces []*kobj.PageDirectory
}

func newASIDManager() *asidManager {
	// One pool pre-installed, as an seL4 system would set up at
	// boot.
	return &asidManager{pools: []*kobj.ASIDPool{{}}}
}

func (m *asidManager) Design() Design                 { return ASIDDesign }
func (m *asidManager) VSpaces() []*kobj.PageDirectory { return m.spaces }

// findFreeASID locates a free ASID: a linear probe over pool entries.
// This is the loop the paper could not preempt ("locating a free ASID
// is difficult to make preemptible", §3.6) — the whole probe runs with
// interrupts disabled.
func (m *asidManager) findFreeASID(e *ktime.Env) (uint32, *kobj.ASIDPool, int, error) {
	for pi, pool := range m.pools {
		for i := 0; i < kobj.ASIDPoolSize; i++ {
			e.Clock.Advance(CostASIDProbe)
			if pool.Entries[i] == nil {
				return uint32(pi*kobj.ASIDPoolSize + i + 1), pool, i, nil
			}
		}
	}
	return 0, nil, 0, fmt.Errorf("vspace: no free ASID")
}

// InitPD copies the kernel window (non-preemptible) and assigns an
// ASID.
func (m *asidManager) InitPD(e *ktime.Env, pd *kobj.PageDirectory) error {
	e.Clock.Advance(CostKernelWindowCopy)
	pd.KernelWindowCopied = true
	asid, pool, idx, err := m.findFreeASID(e)
	if err != nil {
		return err
	}
	pool.Entries[idx] = pd
	pd.ASID = asid
	m.spaces = append(m.spaces, pd)
	return nil
}

func (m *asidManager) MapTable(e *ktime.Env, pd *kobj.PageDirectory, idx int, pt *kobj.PageTable, slot *kobj.Slot) error {
	if idx < 0 || idx >= kobj.PDEntries || pd.Tables.Get(idx) != nil {
		return fmt.Errorf("vspace: bad or occupied directory index %d", idx)
	}
	e.Clock.Advance(CostPTEntry)
	pd.Tables.Set(idx, pt)
	pt.Parent = pd
	pt.ParentIndex = idx
	if idx < pd.LowestMapped {
		pd.LowestMapped = idx
	}
	return nil
}

// MapFrame installs the mapping and stores the inverse information in
// the frame cap itself: the ASID and virtual address (the 8-byte
// payload squeeze of §3.6).
func (m *asidManager) MapFrame(e *ktime.Env, pd *kobj.PageDirectory, vaddr uint32, f *kobj.Frame, slot *kobj.Slot) error {
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
	e.Clock.Advance(CostMapFrame)
	pt.Entries[pi] = f
	if pi < pt.LowestMapped {
		pt.LowestMapped = pi
	}
	f.MappedIn = pd
	f.MappedVaddr = vaddr
	slot.Cap.MappedASID = pd.ASID
	slot.Cap.MappedVaddr = vaddr
	return nil
}

// lookupPD resolves an ASID through the two-level table; nil for stale
// ASIDs (deleted spaces).
func (m *asidManager) lookupPD(e *ktime.Env, asid uint32) *kobj.PageDirectory {
	if asid == 0 {
		return nil
	}
	idx := int(asid - 1)
	pi, i := idx/kobj.ASIDPoolSize, idx%kobj.ASIDPoolSize
	e.Clock.Advance(2 * CostASIDProbe)
	if pi >= len(m.pools) {
		return nil
	}
	return m.pools[pi].Entries[i]
}

// UnmapFrame validates the possibly stale cap against the table and
// removes the mapping if it still agrees — the "harmless dangling
// reference" check of §3.6.
func (m *asidManager) UnmapFrame(e *ktime.Env, slot *kobj.Slot) error {
	if slot.Cap.Type != kobj.CapFrame {
		return fmt.Errorf("vspace: unmap of non-frame cap")
	}
	pd := m.lookupPD(e, slot.Cap.MappedASID)
	if pd == nil {
		// Stale ASID: the space is gone; clear the cap's mapping
		// info and succeed.
		slot.Cap.MappedASID = 0
		slot.Cap.MappedVaddr = 0
		return nil
	}
	f := slot.Cap.Frame()
	di, pi := split(slot.Cap.MappedVaddr)
	pt := pd.Tables.Get(di)
	if pt != nil && pt.Entries[pi] == f {
		e.Clock.Advance(CostPTEntry)
		pt.Entries[pi] = nil
		f.MappedIn = nil
		f.MappedVaddr = 0
	}
	slot.Cap.MappedASID = 0
	slot.Cap.MappedVaddr = 0
	return nil
}

// DeletePD is the ASID design's one luxury: remove the table entry and
// flush the TLB — constant time, no walk. Frame caps into the space go
// stale harmlessly.
func (m *asidManager) DeletePD(e *ktime.Env, pd *kobj.PageDirectory) ktime.Outcome {
	if pd.ASID != 0 {
		idx := int(pd.ASID - 1)
		pi, i := idx/kobj.ASIDPoolSize, idx%kobj.ASIDPoolSize
		if pi < len(m.pools) && m.pools[pi].Entries[i] == pd {
			m.pools[pi].Entries[i] = nil
		}
		e.Clock.Advance(CostASIDProbe)
	}
	e.Clock.Advance(CostTLBFlush)
	for i, s := range m.spaces {
		if s == pd {
			m.spaces = append(m.spaces[:i], m.spaces[i+1:]...)
			break
		}
	}
	pd.ASID = 0
	return ktime.Done
}
