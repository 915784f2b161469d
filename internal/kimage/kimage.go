// Package kimage represents the "compiled kernel binary" that the WCET
// analysis operates on and the machine simulator executes.
//
// The paper analyses the real seL4 ARM binary; we substitute a
// synthetic image: a whole-program control-flow graph whose functions,
// basic blocks, instruction mixes, loop bounds and memory-access
// footprints mirror the structure of the seL4 code paths described in
// the paper (cap decoding, IPC transfer, endpoint queues, object
// clearing, the two scheduler and address-space designs). The image is
// parameterised by kernel configuration, so the analyser can compare
// the kernel before and after the paper's modifications.
//
// An Image is a set of Funcs; a Func is a list of Blocks; a Block is a
// straight-line run of Instrs ending in (optionally) a call and a set
// of successor edges. Link assigns code addresses. Both consumers see
// exactly the same bytes: the analyser classifies each fetch and data
// access with its abstract cache model, the simulator plays them
// against the concrete caches.
package kimage

import (
	"fmt"
	"sort"

	"verikern/internal/arch"
)

// DataRef describes the data access performed by a load or store
// instruction. The zero value means "no data access".
//
// Loops that walk data structures touch a different address each
// iteration; Stride and Count express that: execution i of the
// instruction accesses Base + (i mod max(Count,1))*Stride. The static
// analyser treats any reference with Count > 1 as unclassifiable
// (always miss), mirroring the paper's tooling, which lacked pointer
// analysis for traversals (§5.3).
type DataRef struct {
	// Base is the first address accessed; 0 means no data access.
	Base uint32
	// Stride advances the address per execution of the instruction.
	Stride uint32
	// Count is the number of distinct addresses before wrapping;
	// values 0 and 1 both mean a fixed address.
	Count uint32
	// Write marks the access as a store (dirties the cache line).
	Write bool
}

// Addr returns the effective address of the i-th execution of the
// reference.
func (d DataRef) Addr(i uint64) uint32 {
	if d.Count <= 1 || d.Stride == 0 {
		return d.Base
	}
	return d.Base + uint32(i%uint64(d.Count))*d.Stride
}

// Fixed reports whether the reference always touches one address, and
// is therefore classifiable by the analyser's must-analysis.
func (d DataRef) Fixed() bool { return d.Count <= 1 || d.Stride == 0 }

// Instr is one machine instruction: a timing class plus an optional
// data reference. Its address is assigned at link time from its
// position in the block.
type Instr struct {
	Class arch.Class
	Data  DataRef
}

// Block is a basic block: straight-line instructions, an optional call
// made after the last instruction, and successor edges. A block with no
// successors returns from its function.
type Block struct {
	// Name is unique within the function.
	Name string
	// Instrs is the instruction sequence.
	Instrs []Instr
	// Call names a function invoked after the block's instructions;
	// control then continues to Succs[0]. Empty means no call.
	Call string
	// Succs are the names of successor blocks within the function.
	Succs []string
	// Addr is the link-time address of the first instruction.
	Addr uint32
}

// NumInstrs returns the number of instructions in the block.
func (b *Block) NumInstrs() int { return len(b.Instrs) }

// InstrAddr returns the link-time address of instruction i.
func (b *Block) InstrAddr(i int) uint32 { return b.Addr + uint32(4*i) }

// Func is a function: a named list of blocks, entry first.
type Func struct {
	Name   string
	Blocks []*Block
	// LoopBounds maps a loop-header block name to the maximum
	// number of body iterations per entry to the loop (the header
	// itself executes at most bound+1 times per entry). Bounds are
	// either authored (annotations, §5.2) or computed by the
	// loop-bound inference of internal/loopbound (§5.3).
	LoopBounds map[string]int
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Image is a linked kernel image.
type Image struct {
	// Funcs maps function names to their bodies.
	Funcs map[string]*Func
	// Entries names the kernel entry points (exception vectors)
	// present in the image: system call, interrupt, page fault,
	// undefined instruction.
	Entries []string
	// PinnedLines lists line-aligned instruction addresses pinned
	// into the L1 I-cache, and PinnedData the pinned data lines
	// (stack and key data regions, §4).
	PinnedLines []uint32
	PinnedData  []uint32

	// LinkOrder optionally names functions to place first, in
	// order, before the remaining functions (sorted by name). Used
	// to make a code region contiguous — e.g. to fit the interrupt
	// path into the instruction TCM window (a code-placement
	// optimisation, which §4 notes pinning avoided needing).
	LinkOrder []string

	nextCode uint32
	nextData uint32
	symbols  map[string]uint32
	backend  *arch.Backend
	fp       fingerprintState
}

// New returns an empty image for the default ARM1136 backend with code
// placed from the kernel base and data from the kernel heap base.
func New() *Image {
	return NewFor(arch.ARM1136)
}

// NewFor returns an empty image laid out for backend b's address map:
// code placed from b.KernelBase, data from b.KernelHeapBase. The
// backend participates in the image fingerprint, so analyses of the
// same kernel on different backends can never share cached results.
func NewFor(b *arch.Backend) *Image {
	return &Image{
		Funcs:    make(map[string]*Func),
		nextCode: b.KernelBase,
		nextData: b.KernelHeapBase,
		symbols:  make(map[string]uint32),
		backend:  b,
	}
}

// Backend returns the backend the image is laid out for; images
// constructed without one (zero values in tests) report the default
// ARM1136 backend.
func (img *Image) Backend() *arch.Backend {
	if img.backend == nil {
		return arch.ARM1136
	}
	return img.backend
}

// AddFunc adds a function. It panics on duplicate names: images are
// constructed by builders, so duplicates are programming errors.
func (img *Image) AddFunc(f *Func) {
	if _, dup := img.Funcs[f.Name]; dup {
		panic(fmt.Sprintf("kimage: duplicate function %q", f.Name))
	}
	img.Funcs[f.Name] = f
}

// Data allocates size bytes of kernel data, aligned to a cache line,
// and returns its address. Repeated calls with the same name return the
// same address, so builders of different code paths can share
// structures (run queues, endpoint queues, the ASID table).
func (img *Image) Data(name string, size uint32) uint32 {
	if a, ok := img.symbols[name]; ok {
		return a
	}
	align := uint32(img.Backend().LineBytes)
	img.nextData = (img.nextData + align - 1) &^ (align - 1)
	a := img.nextData
	img.nextData += size
	img.symbols[name] = a
	return a
}

// Symbol returns a previously allocated data address.
func (img *Image) Symbol(name string) (uint32, bool) {
	a, ok := img.symbols[name]
	return a, ok
}

// Link assigns addresses to every block of every function and validates
// the image. Functions named in LinkOrder are placed first, in that
// order; the rest follow in name order for determinism.
func (img *Image) Link() error {
	placed := make(map[string]bool, len(img.LinkOrder))
	var names []string
	for _, n := range img.LinkOrder {
		if img.Funcs[n] == nil {
			return fmt.Errorf("kimage: LinkOrder names undefined function %q", n)
		}
		if !placed[n] {
			placed[n] = true
			names = append(names, n)
		}
	}
	var rest []string
	for n := range img.Funcs {
		if !placed[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	names = append(names, rest...)
	addr := img.nextCode
	line := uint32(img.Backend().LineBytes)
	for _, n := range names {
		f := img.Funcs[n]
		// Align each function to a cache line, as a compiler
		// would.
		addr = (addr + line - 1) &^ (line - 1)
		for _, b := range f.Blocks {
			b.Addr = addr
			addr += uint32(4 * len(b.Instrs))
			if len(b.Instrs) == 0 {
				// Give empty blocks a distinct address so
				// CFG nodes stay distinguishable.
				addr += 4
			}
		}
	}
	img.nextCode = addr
	return img.validate()
}

// CodeBytes reports the total size of the linked text segment.
func (img *Image) CodeBytes() uint32 { return img.nextCode - img.Backend().KernelBase }

func (img *Image) validate() error {
	for _, f := range img.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("kimage: function %q has no blocks", f.Name)
		}
		seen := make(map[string]bool, len(f.Blocks))
		for _, b := range f.Blocks {
			if seen[b.Name] {
				return fmt.Errorf("kimage: %s: duplicate block %q", f.Name, b.Name)
			}
			seen[b.Name] = true
			if b.Call != "" {
				if _, ok := img.Funcs[b.Call]; !ok {
					return fmt.Errorf("kimage: %s/%s calls undefined function %q", f.Name, b.Name, b.Call)
				}
				if len(b.Succs) > 1 {
					return fmt.Errorf("kimage: %s/%s: call block has %d successors, want at most 1", f.Name, b.Name, len(b.Succs))
				}
			}
		}
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				if !seen[s] {
					return fmt.Errorf("kimage: %s/%s: undefined successor %q", f.Name, b.Name, s)
				}
			}
		}
		for h := range f.LoopBounds {
			if !seen[h] {
				return fmt.Errorf("kimage: %s: loop bound on undefined block %q", f.Name, h)
			}
		}
	}
	for _, e := range img.Entries {
		if _, ok := img.Funcs[e]; !ok {
			return fmt.Errorf("kimage: undefined entry point %q", e)
		}
	}
	return nil
}

// PinLines records the given line-aligned code addresses as pinned into
// the locked L1 instruction-cache ways.
func (img *Image) PinLines(addrs ...uint32) {
	img.PinnedLines = append(img.PinnedLines, addrs...)
}

// PinData records the given line-aligned data addresses as pinned into
// the locked L1 data-cache ways.
func (img *Image) PinData(addrs ...uint32) {
	img.PinnedData = append(img.PinnedData, addrs...)
}

// PinnedCodeSet returns the pinned instruction lines as a set keyed by
// line address.
func (img *Image) PinnedCodeSet() map[uint32]bool {
	line := uint32(img.Backend().LineBytes)
	s := make(map[uint32]bool, len(img.PinnedLines))
	for _, a := range img.PinnedLines {
		s[a&^(line-1)] = true
	}
	return s
}

// PinnedDataSet returns the pinned data lines as a set keyed by line
// address.
func (img *Image) PinnedDataSet() map[uint32]bool {
	line := uint32(img.Backend().LineBytes)
	s := make(map[uint32]bool, len(img.PinnedData))
	for _, a := range img.PinnedData {
		s[a&^(line-1)] = true
	}
	return s
}

// CodeLines returns every cache-line address of the linked text
// segment, the set locked into the L2 under the kernel-locking
// configuration.
func (img *Image) CodeLines() []uint32 {
	line := uint32(img.Backend().LineBytes)
	seen := make(map[uint32]bool)
	var out []uint32
	for _, f := range img.Funcs {
		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 {
				continue
			}
			start := b.Addr &^ (line - 1)
			end := b.InstrAddr(len(b.Instrs) - 1)
			for a := start; a <= end; a += line {
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
	}
	return out
}
