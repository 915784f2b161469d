package kimage

import (
	"fmt"

	"verikern/internal/arch"
)

// FuncBuilder assembles a Func from structured control flow: straight
// -line code, if/else diamonds, bounded loops and calls. It always
// produces a reducible CFG with single-entry natural loops, matching
// what a compiler emits for the kernel's C code.
type FuncBuilder struct {
	img    *Image
	fn     *Func
	cur    *Block
	nextID int
}

// NewFunc starts building a function in the image.
func (img *Image) NewFunc(name string) *FuncBuilder {
	f := &Func{Name: name, LoopBounds: make(map[string]int)}
	img.AddFunc(f)
	b := &FuncBuilder{img: img, fn: f}
	b.cur = b.newBlock("entry")
	return b
}

func (b *FuncBuilder) newBlock(hint string) *Block {
	name := fmt.Sprintf("%s%d", hint, b.nextID)
	b.nextID++
	blk := &Block{Name: name}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	return blk
}

// link adds an edge from 'from' to 'to'.
func link(from, to *Block) {
	from.Succs = append(from.Succs, to.Name)
}

// Ops appends n instructions of the given class to the current block.
func (b *FuncBuilder) Ops(n int, class arch.Class) *FuncBuilder {
	for i := 0; i < n; i++ {
		b.cur.Instrs = append(b.cur.Instrs, Instr{Class: class})
	}
	return b
}

// ALU appends n single-cycle data-processing instructions.
func (b *FuncBuilder) ALU(n int) *FuncBuilder { return b.Ops(n, arch.ALU) }

// CLZ appends a count-leading-zeros instruction.
func (b *FuncBuilder) CLZ() *FuncBuilder { return b.Ops(1, arch.CLZ) }

// Load appends a load from a fixed address.
func (b *FuncBuilder) Load(addr uint32) *FuncBuilder {
	b.cur.Instrs = append(b.cur.Instrs, Instr{Class: arch.Load, Data: DataRef{Base: addr}})
	return b
}

// Store appends a store to a fixed address.
func (b *FuncBuilder) Store(addr uint32) *FuncBuilder {
	b.cur.Instrs = append(b.cur.Instrs, Instr{Class: arch.Store, Data: DataRef{Base: addr, Write: true}})
	return b
}

// LoadStride appends a load whose address advances by stride per
// execution across count distinct addresses — a data-structure walk.
func (b *FuncBuilder) LoadStride(base, stride, count uint32) *FuncBuilder {
	b.cur.Instrs = append(b.cur.Instrs, Instr{Class: arch.Load,
		Data: DataRef{Base: base, Stride: stride, Count: count}})
	return b
}

// StoreStride appends a striding store.
func (b *FuncBuilder) StoreStride(base, stride, count uint32) *FuncBuilder {
	b.cur.Instrs = append(b.cur.Instrs, Instr{Class: arch.Store,
		Data: DataRef{Base: base, Stride: stride, Count: count, Write: true}})
	return b
}

// Call ends the current block with a call to fn and continues in a new
// block.
func (b *FuncBuilder) Call(fn string) *FuncBuilder {
	if len(b.cur.Instrs) == 0 {
		// Calls are branch-and-link instructions; give the block
		// a concrete instruction so it has an address footprint.
		b.ALU(1)
	}
	b.cur.Call = fn
	cont := b.newBlock("cont")
	link(b.cur, cont)
	b.cur = cont
	return b
}

// If emits a two-way diamond: cond is the current block's terminator;
// then and els populate the two arms (els may be nil for an empty
// arm). Control rejoins in a fresh block.
func (b *FuncBuilder) If(then, els func(*FuncBuilder)) *FuncBuilder {
	condBlk := b.cur
	thenBlk := b.newBlock("then")
	joinBlk := b.newBlock("join")

	link(condBlk, thenBlk)
	b.cur = thenBlk
	then(b)
	link(b.cur, joinBlk)

	if els != nil {
		elseBlk := b.newBlock("else")
		link(condBlk, elseBlk)
		b.cur = elseBlk
		els(b)
		link(b.cur, joinBlk)
	} else {
		link(condBlk, joinBlk)
	}
	b.cur = joinBlk
	return b
}

// Switch emits an n-way branch; each arm rejoins a common block. It
// models the cap-type switch statements that pervade seL4 (§6, Fig. 6).
// Arm i is built by arms[i]. Returns the names of the first block of
// each arm, which user constraints ("a is consistent with b in f",
// §5.2) reference.
func (b *FuncBuilder) Switch(arms ...func(*FuncBuilder)) []string {
	condBlk := b.cur
	joinBlk := b.newBlock("join")
	names := make([]string, len(arms))
	for i, arm := range arms {
		armBlk := b.newBlock(fmt.Sprintf("case%d_", i))
		names[i] = armBlk.Name
		link(condBlk, armBlk)
		b.cur = armBlk
		if arm != nil {
			arm(b)
		}
		link(b.cur, joinBlk)
	}
	b.cur = joinBlk
	return names
}

// Loop emits a natural loop: a header that either enters the body or
// exits, and a body that branches back to the header. bound is the
// maximum number of body iterations per loop entry (the annotation the
// analyser needs, §5.2–5.3). body builds the loop body. Returns the
// header block name.
func (b *FuncBuilder) Loop(bound int, body func(*FuncBuilder)) string {
	header := b.newBlock("loophead")
	exit := b.newBlock("loopexit")
	link(b.cur, header)
	// The header does the loop test: a couple of ALU ops.
	header.Instrs = append(header.Instrs,
		Instr{Class: arch.ALU}, Instr{Class: arch.ALU})

	bodyBlk := b.newBlock("loopbody")
	link(header, bodyBlk)
	link(header, exit)
	b.cur = bodyBlk
	body(b)
	link(b.cur, header) // back edge
	b.fn.LoopBounds[header.Name] = bound
	b.cur = exit
	return header.Name
}

// Ret finishes the function: the current block becomes a return block.
// Further building is invalid.
func (b *FuncBuilder) Ret() *Func {
	if len(b.cur.Instrs) == 0 {
		b.ALU(1) // the return branch itself
	}
	return b.fn
}
