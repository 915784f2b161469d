// Package vspace implements the two virtual-address-space management
// designs the paper contrasts (§3.6):
//
//   - The original ASID design: frame caps store an 18-bit address-
//     space identifier resolved through a sparse two-level lookup
//     table. Address-space deletion is O(1) (drop the table entry and
//     flush the TLB; stale frame caps are harmless), but locating a
//     free ASID and deleting an ASID pool are inherently hard-to-
//     preempt loops over up to 1024 entries.
//
//   - The shadow-page-table design that replaced it: each page table
//     and page directory carries a shadow array of back-pointers from
//     mapping to frame-cap slot. All map/unmap/delete operations
//     eagerly maintain the back-pointers, deletion walks the space with
//     a preemption point per entry, and the lowest-mapped index is
//     stored so a preempted deletion never repeats work — the
//     incremental-consistency pattern.
//
// Operations charge simulated cycles to the kernel clock and honour
// preemption points through ktime.Env, the contract package ipc
// shares.
package vspace

import (
	"fmt"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
)

// Design selects an address-space management design.
type Design int

// Address-space designs.
const (
	// ASIDDesign is the original indirection-table design.
	ASIDDesign Design = iota
	// ShadowDesign is the shadow-page-table design.
	ShadowDesign
)

// String returns the design name.
func (d Design) String() string {
	if d == ASIDDesign {
		return "asid"
	}
	return "shadow"
}

// Designs returns both address-space designs — the domain of the
// konfig "vspace.design" key.
func Designs() []Design { return []Design{ASIDDesign, ShadowDesign} }

// ParseDesign resolves a design name as printed by Design.String.
func ParseDesign(s string) (Design, error) {
	for _, d := range Designs() {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("vspace: unknown address-space design %q", s)
}

// Operation costs in simulated cycles.
const (
	// CostKernelWindowCopy is the non-preemptible copy of the 1 KiB
	// kernel mapping window into a new page directory — measured at
	// about 20 µs on the target platform (§3.5), ≈ 10640 cycles at
	// 532 MHz.
	CostKernelWindowCopy = 10640
	// CostClear1K is clearing 1 KiB of object memory, the unit
	// between preemption points in object creation (§3.5).
	CostClear1K = 10640
	// CostPTEntry is unmapping or updating one page-table entry.
	CostPTEntry = 22
	// CostTLBFlush flushes an address space from the TLB.
	CostTLBFlush = 150
	// CostASIDProbe is testing one entry of an ASID pool.
	CostASIDProbe = 12
	// CostMapFrame is the fixed part of mapping one frame.
	CostMapFrame = 180
)

// Manager is the common interface of both designs.
type Manager interface {
	Design() Design
	// InitPD prepares a freshly retyped page directory: copies the
	// kernel window (non-preemptible, §3.5) and performs
	// design-specific setup (ASID assignment / shadow allocation).
	InitPD(e *ktime.Env, pd *kobj.PageDirectory) error
	// MapTable installs a page table at directory index idx.
	MapTable(e *ktime.Env, pd *kobj.PageDirectory, idx int, pt *kobj.PageTable, slot *kobj.Slot) error
	// MapFrame maps a frame at vaddr through its cap slot,
	// maintaining the design's inverse-mapping information.
	MapFrame(e *ktime.Env, pd *kobj.PageDirectory, vaddr uint32, f *kobj.Frame, slot *kobj.Slot) error
	// UnmapFrame removes a frame mapping through its cap slot.
	UnmapFrame(e *ktime.Env, slot *kobj.Slot) error
	// DeletePD deletes an address space; preemptible in the shadow
	// design, O(1)-lazy in the ASID design.
	DeletePD(e *ktime.Env, pd *kobj.PageDirectory) ktime.Outcome
	// VSpaces returns the live address spaces, for invariants.
	VSpaces() []*kobj.PageDirectory
}

// split decomposes a virtual address per ARMv6 small pages: a 12-bit
// directory index (1 MiB sections), an 8-bit table index (4 KiB
// pages), and a 12-bit offset.
func split(vaddr uint32) (dirIdx, ptIdx int) {
	return int(vaddr >> 20), int(vaddr >> 12 & 0xFF)
}

// validVaddr bounds user mappings below the kernel window.
func validVaddr(vaddr uint32) bool { return vaddr < 0xF000_0000 }

// New constructs a manager of the given design.
func New(d Design) Manager {
	switch d {
	case ASIDDesign:
		return newASIDManager()
	case ShadowDesign:
		return &shadowManager{}
	default:
		panic(fmt.Sprintf("vspace: unknown design %d", d))
	}
}
