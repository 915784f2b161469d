package kimage

import "verikern/internal/arch"

// Replay is a block trace compiled for repeated replay. Everything a
// replay of the trace needs that does not depend on machine state is
// resolved once, in one pass: every instruction's timing class and data
// address (strided references unrolled with per-trace execution
// indices), and every block's fetch address, branch address and branch
// direction.
// The machine simulator, the analyser's TraceCycles and the adversarial
// probe's footprint priming all walk the same compiled steps.
//
// A Replay is immutable after Compile, apart from the footprint, which
// is built on first use and memoised, so it is not safe for concurrent
// use. Compile per campaign rather than caching a Replay beside
// long-lived analysis results: it is several times the size of the
// block trace.
type Replay struct {
	// Steps holds one entry per executed instruction, in trace order.
	Steps []Step
	// Blocks holds one entry per executed block, in trace order.
	// Block i's instructions are Steps[Blocks[i-1].End:Blocks[i].End]
	// (from 0 for the first block).
	Blocks []BlockStep

	footprinted bool
	code, data  []uint32
}

// Step is one executed instruction of a compiled trace. Its fetch
// address follows from its block's: instruction k of a block fetches
// from BlockStep.Addr + 4k.
type Step struct {
	// Data is the resolved address of the instruction's data access;
	// meaningful only when HasData is set.
	Data uint32
	// Class is the instruction's timing class.
	Class arch.Class
	// HasData marks an instruction with a data access, and Write
	// marks that access as a store.
	HasData, Write bool
}

// BlockStep is one executed block of a compiled trace. Leaving any
// block costs a branch, whether it calls, has one or several
// successors (the linker does not lay blocks out for fallthrough) or
// returns.
type BlockStep struct {
	// Addr is the fetch address of the block's first instruction.
	Addr uint32
	// End is the index into Replay.Steps one past the block's last
	// instruction.
	End uint32
	// Branch is the address of the block's terminating branch: its
	// last instruction, or Addr when it has none.
	Branch uint32
	// Taken is the branch's direction on this trace: not taken only
	// when control falls through to the block's first successor
	// without an intervening call.
	Taken bool
}

// Compile resolves a block trace into its replay form. Strided data
// references advance one execution index per instruction per trace,
// starting from zero, exactly as one replay of the trace walks them.
func Compile(trace []*Block) *Replay {
	n := 0
	for _, b := range trace {
		n += len(b.Instrs)
	}
	r := &Replay{Steps: make([]Step, 0, n), Blocks: make([]BlockStep, len(trace))}
	var execIndex map[*Block][]uint64
	for bi, b := range trace {
		var idx []uint64
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			s := Step{Class: ins.Class}
			if ins.Data.Base != 0 {
				s.HasData, s.Write = true, ins.Data.Write
				if ins.Data.Fixed() {
					s.Data = ins.Data.Base
				} else {
					if idx == nil {
						if execIndex == nil {
							execIndex = make(map[*Block][]uint64)
						}
						if idx = execIndex[b]; idx == nil {
							idx = make([]uint64, len(b.Instrs))
							execIndex[b] = idx
						}
					}
					s.Data = ins.Data.Addr(idx[i])
					idx[i]++
				}
			}
			r.Steps = append(r.Steps, s)
		}
		branch := b.Addr
		if k := len(b.Instrs); k > 0 {
			branch = b.InstrAddr(k - 1)
		}
		fallsThrough := bi+1 < len(trace) && len(b.Succs) > 0 && trace[bi+1].Name == b.Succs[0] && b.Call == ""
		r.Blocks[bi] = BlockStep{Addr: b.Addr, End: uint32(len(r.Steps)), Branch: branch, Taken: !fallsThrough}
	}
	return r
}

// Footprint returns the address footprint of replaying the trace:
// every instruction-fetch address and every data address, each
// deduplicated but listed in first-touch order, so it is exactly the
// set of addresses a replay touches. It is computed on first call and
// shared by later ones; callers must not modify the slices.
//
// Adversarial priming consumes the footprint to evict or dirty
// precisely the cache sets a worst-case path will re-fetch
// (cache.DirtyFootprint), rather than polluting blindly.
func (r *Replay) Footprint() (code, data []uint32) {
	if r.footprinted {
		return r.code, r.data
	}
	r.footprinted = true
	// A block whose fetch addresses are all known already (the
	// same address and length seen before) adds no code address,
	// so repeated blocks skip the per-address lookups.
	seenBlock := make(map[uint32]uint32)
	seenCode := make(map[uint32]struct{})
	nData := 0
	for i := range r.Steps {
		if r.Steps[i].HasData {
			nData++
		}
	}
	seenData := make(map[uint32]struct{}, nData)
	start := uint32(0)
	for _, b := range r.Blocks {
		steps := r.Steps[start:b.End]
		start = b.End
		if n, ok := seenBlock[b.Addr]; !ok || n != uint32(len(steps)) {
			seenBlock[b.Addr] = uint32(len(steps))
			for i := range steps {
				fetch := b.Addr + uint32(4*i)
				if _, ok := seenCode[fetch]; !ok {
					seenCode[fetch] = struct{}{}
					r.code = append(r.code, fetch)
				}
			}
		}
		for _, s := range steps {
			if !s.HasData {
				continue
			}
			if _, ok := seenData[s.Data]; !ok {
				seenData[s.Data] = struct{}{}
				r.data = append(r.data, s.Data)
			}
		}
	}
	return r.code, r.data
}

// TraceFootprint returns the footprint of a block trace: Compile
// followed by Replay.Footprint.
func TraceFootprint(trace []*Block) (code, data []uint32) {
	return Compile(trace).Footprint()
}
