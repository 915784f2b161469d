// Package kbin builds the synthetic compiled kernel image that stands
// in for the seL4 ARM binary the paper analyses (§5). The image
// mirrors the structure that drives the published results:
//
//   - four exception-vector entry points: system call, interrupt,
//     page fault and undefined instruction (§5.2);
//   - guarded capability-space decoding of up to 32 levels, performed
//     up to 11 times in the worst-case send-receive IPC (§6.1);
//   - a full-length 120-word message transfer;
//   - the long-running operations of §3 with loop bounds set by the
//     kernel configuration: with preemption points the analysed path
//     ends at the first preemption point (the paper's path-termination
//     rule (b), §5.2), so loops are bounded by the work between
//     preemption points; without them the loops run to their full
//     structural bounds;
//   - the two scheduler designs (lazy scan with bulk dequeue vs the
//     two-CLZ bitmap lookup);
//   - the two address-space designs (ASID probe/delete loops vs the
//     constant-time shadow setup);
//   - the switch-on-cap-type coding style of Fig. 6 that makes paths
//     infeasible across helper calls — with matching "consistent"
//     constraints (§5.2) to exclude them.
//
// The pin set (§4) covers the interrupt delivery path, the first 256
// bytes of stack and key data regions, sized to fit one locked L1 way.
package kbin

import (
	"fmt"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/loopbound"
	"verikern/internal/wcet"
)

// Options selects the kernel build variant.
type Options struct {
	// Modernised applies the paper's changes: preemption points,
	// Benno scheduling with bitmaps, shadow page tables (§3).
	Modernised bool
	// Pinned marks the interrupt path and key data for L1
	// way-locking (§4).
	Pinned bool
	// TCM places the interrupt path and key data in tightly-coupled
	// memory instead (§5.1's alternative to way-locking), using the
	// link-order placement the paper avoided for pinning.
	TCM bool
	// Arch names the hardware backend to lay the image out for (see
	// internal/arch's registry); empty selects the default ARM1136
	// backend. The backend fixes the link base, line size and the L1
	// geometries the pin sets are fitted to.
	Arch string
}

// Canonical renders the options as a stable "k=v" listing with the
// backend id normalised through the registry, so equivalent Options —
// the empty Arch and the explicit default id — encode identically.
// konfig uses it to project a lattice point onto the image axis of the
// analysis cache key: lattice keys that do not change the built image
// (invariant checking, clearing granularity) share one projection.
func (o Options) Canonical() string {
	be, err := arch.Lookup(o.Arch)
	if err != nil {
		// Unresolvable backends cannot share anything; keep the raw
		// name so the projection stays total.
		return fmt.Sprintf("arch=%s modern=%t pinned=%t tcm=%t", o.Arch, o.Modernised, o.Pinned, o.TCM)
	}
	return fmt.Sprintf("arch=%s modern=%t pinned=%t tcm=%t", be.ID, o.Modernised, o.Pinned, o.TCM)
}

// Entry point names in the built image.
const (
	EntrySyscall   = "handleSyscall"
	EntryInterrupt = "handleInterrupt"
	EntryPageFault = "handlePageFault"
	EntryUndefined = "handleUndefined"
)

// Structural bounds of the modelled system, chosen to reproduce the
// relative magnitudes of the paper's Table 2.
const (
	// decodeLevels is the adversarial cap-space depth (Fig. 7).
	decodeLevels = 32
	// ipcDecodes is the number of cap decodes in the worst-case
	// send-receive IPC (§6.1).
	ipcDecodes = 11
	// msgWords is the full message length.
	msgWords = 120
	// preDeleteWaiters bounds the endpoint-deletion drain and the
	// badged-abort walk in the pre-modification kernel (all waiters
	// processed with interrupts disabled; really only bounded by the
	// memory available for TCBs, §3.3).
	preDeleteWaiters = 8192
	// preClearChunks bounds object clearing in the pre-modification
	// kernel: a 256 KiB capability table in 1 KiB chunks.
	preClearChunks = 256
	// asidPoolEntries is the ASID probe/delete bound (§3.6).
	asidPoolEntries = 1024
	// lazyQueueThreads bounds the lazy scheduler's bulk dequeue
	// (§3.1) for analysis purposes (thread count is really only
	// memory-bounded; the analysis must assume some system size).
	lazyQueueThreads = 128
)

// Build constructs the linked image and the §5.2 user constraints that
// exclude its infeasible cross-switch paths.
func Build(o Options) (*kimage.Image, []wcet.UserConstraint, error) {
	be, err := arch.Lookup(o.Arch)
	if err != nil {
		return nil, nil, err
	}
	if o.TCM && !be.HasTCM {
		return nil, nil, fmt.Errorf("kbin: backend %s has no tightly-coupled memory", be.ID)
	}
	b := &builder{img: kimage.NewFor(be), o: o}
	b.data()
	b.helpers()
	b.scheduler()
	b.operations()
	b.entries()
	b.img.Entries = []string{EntrySyscall, EntryInterrupt, EntryPageFault, EntryUndefined}
	if o.TCM {
		// Place the interrupt path contiguously so it fits the
		// 4 KiB instruction TCM window.
		b.img.LinkOrder = []string{"entrySave", "irqDispatch", "chooseThread", "exitRestore", EntryInterrupt}
	}
	if err := b.img.Link(); err != nil {
		return nil, nil, err
	}
	if o.Pinned {
		b.pin()
	}
	return b.img, b.constraints, nil
}

// TCMConfig returns the hardware TCM windows matching a TCM build: the
// instruction window at the kernel base (where LinkOrder placed the
// interrupt path) and the data window over the interrupt path's key
// data (interrupt controller, run queues, bitmap).
func TCMConfig(img *kimage.Image) (itcmBase, dtcmBase uint32, err error) {
	irqctl, ok := img.Symbol("irqctl")
	if !ok {
		return 0, 0, fmt.Errorf("kbin: image has no irqctl symbol")
	}
	return img.Backend().KernelBase, irqctl, nil
}

type builder struct {
	img         *kimage.Image
	o           Options
	constraints []wcet.UserConstraint
	helperArms  []string
	sysArms     []string

	// data symbols
	stack    uint32
	irqctl   uint32
	runq     uint32
	bitmap   uint32
	cnodes   uint32
	tcbs     uint32
	epQueue  uint32
	msgSrc   uint32
	msgDst   uint32
	ptMem    uint32
	asidTbl  uint32
	faultTbl uint32
}

func (b *builder) data() {
	img := b.img
	b.stack = img.Data("kstack", 4096)
	b.irqctl = img.Data("irqctl", 512)
	b.runq = img.Data("runqueues", 256*8)
	b.bitmap = img.Data("sched_bitmap", 64)
	b.cnodes = img.Data("cnodes", 64*1024)
	b.tcbs = img.Data("tcbs", 512*lazyQueueThreads)
	b.epQueue = img.Data("ep_queue", 64*preDeleteWaiters)
	b.msgSrc = img.Data("msg_src", 4*msgWords)
	b.msgDst = img.Data("msg_dst", 4*msgWords)
	b.ptMem = img.Data("pt_mem", 64*1024)
	b.asidTbl = img.Data("asid_table", 4*asidPoolEntries)
	b.faultTbl = img.Data("fault_table", 512)
}

// helpers builds the shared low-level functions.
func (b *builder) helpers() {
	img := b.img

	// entrySave: trap entry — mode switch, register save to the
	// kernel stack, fault-status reads.
	f := img.NewFunc("entrySave")
	f.ALU(14)
	f.Ops(4, arch.System)
	for i := uint32(0); i < 18; i++ {
		f.Store(b.stack + i*4)
	}
	f.ALU(10)
	f.Load(b.tcbs) // current thread's TCB
	f.Load(b.tcbs + 32)
	f.Store(b.stack + 80)
	f.Ops(3, arch.System)
	f.ALU(8)
	f.Ret()

	// exitRestore: register restore, mode switch, return to user.
	f = img.NewFunc("exitRestore")
	f.ALU(8)
	f.Load(b.tcbs + 64)
	for i := uint32(0); i < 18; i++ {
		f.Load(b.stack + i*4)
	}
	f.Ops(4, arch.System)
	f.ALU(10)
	f.Ret()

	// decodeCap: the guarded 32-level walk of Fig. 7. Every level
	// loads a different CNode slot — a strided walk the analyser
	// cannot classify, so each iteration is a potential miss: the
	// "huge number of cache misses" of §6.1.
	f = img.NewFunc("decodeCap")
	f.ALU(8)
	f.Loop(decodeLevels, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.cnodes, 2048, decodeLevels)
		f.ALU(6) // guard check, radix extraction
		f.LoadStride(b.cnodes+16, 2048, decodeLevels)
		f.ALU(4)
		// The slot's derivation-tree word, on its own line.
		f.LoadStride(b.cnodes+32, 2048, decodeLevels)
		f.ALU(3)
	})
	f.ALU(4)
	f.Ret()

	// transferMsg: the full-length message copy.
	f = img.NewFunc("transferMsg")
	f.ALU(6)
	f.Loop(msgWords, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.msgSrc, 4, msgWords)
		f.StoreStride(b.msgDst, 4, msgWords)
		f.ALU(2)
	})
	f.Ret()

	// capTypeHelper: a callee that switches on the same cap type as
	// its callers (Fig. 6). Without constraints, virtual inlining
	// lets the analysis pick its expensive arm under every caller
	// arm; the Consistent constraints forbid that.
	f = img.NewFunc("capTypeHelper")
	arms := f.Switch(
		func(f *kimage.FuncBuilder) { f.ALU(4) }, // frame caps: cheap
		func(f *kimage.FuncBuilder) { // cnode caps: revalidate via memory
			for i := uint32(0); i < 8; i++ {
				f.Load(b.cnodes + 32*1024 + i*32)
			}
		},
	)
	f.Ret()
	b.helperArms = arms
}

// scheduler builds the configured scheduler's chooseThread.
func (b *builder) scheduler() {
	img := b.img
	f := img.NewFunc("chooseThread")
	if b.o.Modernised {
		// Two loads and two CLZ instructions (§3.2): no loop.
		f.Load(b.bitmap)
		f.CLZ()
		f.Load(b.bitmap + 4)
		f.CLZ()
		f.Load(b.runq) // head of the selected queue
		f.ALU(6)       // dequeue pointer updates
		f.Store(b.runq)
		f.Ret()
		return
	}
	// Lazy scheduling (Fig. 2): scan priorities; each may hold
	// blocked threads that must be dequeued.
	f.ALU(4)
	f.Loop(kimagePrios, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.runq, 8, kimagePrios)
		f.ALU(3)
	})
	// Bulk dequeue of blocked threads (the pathological §3.1 case).
	f.Loop(lazyQueueThreads, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.tcbs, 512, lazyQueueThreads)
		f.ALU(8) // state test, unlink
		f.StoreStride(b.tcbs+16, 512, lazyQueueThreads)
	})
	f.ALU(4)
	f.Ret()
}

const kimagePrios = 256

// operations builds the long-running operation bodies; bounds depend
// on whether preemption points truncate them.
func (b *builder) operations() {
	img := b.img

	deleteBound := preDeleteWaiters
	clearBound := preClearChunks
	abortBound := preDeleteWaiters
	if b.o.Modernised {
		// With a preemption point per iteration, the analysed
		// path ends after one unit of work (§5.2 rule (b)).
		deleteBound = 1
		clearBound = 1
		abortBound = 1
	}

	// epDelete: endpoint deletion drain (§3.3).
	f := img.NewFunc("epDelete")
	f.ALU(10) // deactivate endpoint
	f.Store(b.epQueue)
	f.Loop(deleteBound, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.epQueue, 64, preDeleteWaiters)
		f.ALU(10) // dequeue, restart thread
		f.StoreStride(b.tcbs+32, 512, preDeleteWaiters)
	})
	f.Ret()

	// badgedAbort: the §3.4 walk.
	f = img.NewFunc("badgedAbort")
	f.ALU(8)
	f.Load(b.epQueue + 8) // resume state: cursor, end, badge, worker
	f.Load(b.epQueue + 16)
	f.Loop(abortBound, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.epQueue+8, 64, preDeleteWaiters)
		f.ALU(7) // badge compare
		f.If(func(f *kimage.FuncBuilder) {
			f.ALU(6) // dequeue matching entry
			f.StoreStride(b.tcbs+48, 512, preDeleteWaiters)
		}, nil)
	})
	f.Store(b.epQueue + 8) // save cursor
	f.Ret()

	// clearObject: object-creation clearing in 1 KiB chunks (§3.5).
	f = img.NewFunc("clearObject")
	f.ALU(6)
	f.Loop(clearBound, func(f *kimage.FuncBuilder) {
		// One 1 KiB chunk: 32 line-sized stores.
		f.StoreStride(b.ptMem, 32, 32*preClearChunks)
		f.ALU(2)
		f.StoreStride(b.ptMem+16, 32, 32*preClearChunks)
		f.ALU(2)
	})
	f.ALU(8) // book-keeping pass (short, atomic)
	f.Store(b.ptMem + 60000)
	f.Ret()

	// vspaceOp: address-space management.
	f = img.NewFunc("vspaceOp")
	if b.o.Modernised {
		// Shadow design: constant-time setup; deletion preempts
		// per entry, so one unit of work per analysed path.
		f.ALU(10)
		f.Load(b.ptMem)
		f.Store(b.ptMem + 4)
		f.Store(b.ptMem + 1024) // shadow back-pointer
		f.ALU(6)
	} else {
		// ASID design: free-ASID probe and pool-delete loops
		// (§3.6), not preemptible.
		f.ALU(6)
		f.Loop(asidPoolEntries, func(f *kimage.FuncBuilder) {
			f.LoadStride(b.asidTbl, 4, asidPoolEntries)
			f.ALU(2)
		})
	}
	f.Ret()

	// kernelWindowCopy: the non-preemptible 1 KiB copy into new
	// page directories (§3.5) — present in both kernels.
	f = img.NewFunc("kernelWindowCopy")
	f.ALU(4)
	f.Loop(32, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.ptMem+2048, 32, 32)
		f.StoreStride(b.ptMem+4096, 32, 32)
	})
	f.Ret()

	// irqDispatch: read the interrupt controller, acknowledge the
	// source, look up the handler endpoint and wake its handler
	// thread (the complete delivery path the paper pins, §4).
	f = img.NewFunc("irqDispatch")
	f.Load(b.irqctl)
	f.ALU(10)
	f.Load(b.irqctl + 8)
	f.CLZ() // find highest pending source
	f.ALU(8)
	f.Store(b.irqctl + 16) // mask the source
	f.Ops(2, arch.System)
	// Handler endpoint lookup and notification delivery.
	for i := uint32(0); i < 6; i++ {
		f.Load(b.faultTbl + i*32)
	}
	f.ALU(16)
	// Wake the handler thread: endpoint dequeue plus run-queue
	// insert.
	f.Load(b.epQueue + 32*64)
	f.ALU(8)
	f.Store(b.epQueue + 32*64)
	f.Load(b.tcbs + 96)
	f.ALU(10)
	f.Store(b.tcbs + 128)
	f.Store(b.runq + 16)
	f.Load(b.bitmap)
	f.ALU(4)
	f.Store(b.bitmap)
	// Pending-source scan: up to 8 deferred sources re-checked.
	f.Loop(8, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.irqctl+64, 32, 8)
		f.ALU(4)
	})
	// IRQ state bookkeeping across distinct lines.
	for i := uint32(0); i < 6; i++ {
		f.Load(b.faultTbl + 192 + i*32)
		f.ALU(3)
	}
	// Timestamp and EOI.
	f.Load(b.irqctl + 24)
	f.ALU(12)
	f.Store(b.irqctl + 32)
	f.Ops(2, arch.System)
	f.ALU(8)
	f.Ret()
}

// entries builds the four exception-vector paths.
func (b *builder) entries() {
	img := b.img

	// handleSyscall: decode the invoked cap, switch on its type into
	// the operation paths, schedule, return.
	f := img.NewFunc(EntrySyscall)
	f.Call("entrySave")
	f.Call("decodeCap")
	f.ALU(12)
	sysArms := f.Switch(
		// IPC send-receive: the §6.1 worst case — full transfer
		// plus up to 11 cap-space decodes, then the helper
		// switch (Fig. 6).
		func(f *kimage.FuncBuilder) {
			f.ALU(10)
			f.Loop(ipcDecodes-1, func(f *kimage.FuncBuilder) {
				f.Call("decodeCap")
				f.ALU(4)
			})
			f.Call("transferMsg")
			f.Call("capTypeHelper")
			f.ALU(8)
		},
		// Untyped retype / object creation.
		func(f *kimage.FuncBuilder) {
			f.ALU(8)
			f.Call("clearObject")
			f.Call("kernelWindowCopy")
			f.Call("capTypeHelper")
		},
		// Endpoint deletion.
		func(f *kimage.FuncBuilder) {
			f.ALU(6)
			f.Call("epDelete")
		},
		// Badged abort.
		func(f *kimage.FuncBuilder) {
			f.ALU(6)
			f.Call("badgedAbort")
		},
		// Address-space management.
		func(f *kimage.FuncBuilder) {
			f.ALU(6)
			f.Call("vspaceOp")
		},
	)
	// finalise: a second switch over the same cap type (the Fig. 6
	// coding style — "the return value of getCapType() is guaranteed
	// to be the same in both functions"). Unconstrained, the
	// analysis combines the worst arm of each switch, an infeasible
	// path.
	finArms := f.Switch(
		// IPC finalise: cheap (reply-cap bookkeeping).
		func(f *kimage.FuncBuilder) { f.ALU(6) },
		// Retype finalise: derivation-tree insertion over
		// distinct lines.
		func(f *kimage.FuncBuilder) {
			for i := uint32(0); i < 10; i++ {
				f.Load(b.cnodes + 48*1024 + i*32)
				f.ALU(2)
			}
		},
		// Endpoint-delete finalise: cap slot clears.
		func(f *kimage.FuncBuilder) {
			for i := uint32(0); i < 6; i++ {
				f.Store(b.cnodes + 52*1024 + i*32)
			}
		},
		// Abort finalise: resume-state writeback.
		func(f *kimage.FuncBuilder) {
			f.Store(b.epQueue + 8)
			f.Store(b.epQueue + 16)
			f.ALU(4)
		},
		// VSpace finalise: TLB maintenance and mapping audit over
		// many distinct lines — the expensive arm the infeasible
		// path would pair with the IPC arm.
		func(f *kimage.FuncBuilder) {
			f.Ops(4, arch.System)
			for i := uint32(0); i < 24; i++ {
				f.Load(b.ptMem + 32*1024 + i*32)
				f.ALU(2)
			}
		},
	)
	f.Call("chooseThread")
	f.Call("exitRestore")
	f.Ret()
	b.sysArms = sysArms

	// The §5.2 constraints: each main arm is consistent with its
	// finalise arm (both switch on the cap type decoded once), and
	// the helper switching on the same type (Fig. 6) takes its
	// expensive arm at most once per call.
	for i := range sysArms {
		b.constraints = append(b.constraints,
			wcet.Consist(EntrySyscall, sysArms[i], finArms[i]))
	}
	b.constraints = append(b.constraints,
		wcet.ExecutesAtMost("capTypeHelper", b.helperArms[1], 1),
	)

	// handleInterrupt: the interrupt delivery path (§4's pin
	// target).
	f = img.NewFunc(EntryInterrupt)
	f.Call("entrySave")
	f.Call("irqDispatch")
	f.Call("chooseThread")
	f.Call("exitRestore")
	f.Ret()

	// handlePageFault: fault decode, address-space validation (the
	// ASID table walk in the original kernel; constant shadow
	// lookups in the modern one — the "two potentially long-running
	// loops" §6 credits the new design with removing), one cap
	// decode to find the fault handler, fault message, schedule.
	f = img.NewFunc(EntryPageFault)
	f.Call("entrySave")
	f.ALU(14)
	f.Load(b.faultTbl + 32)
	f.Call("vspaceOp")
	f.Call("decodeCap")
	f.ALU(10)
	// Rights re-validation re-walks the handler cap's decode chain;
	// on hardware the second walk largely hits the L2 — the
	// compensation that keeps the L2's cold-path penalty small
	// (§6.4).
	f.Call("decodeCap")
	f.ALU(6)
	f.Loop(4, func(f *kimage.FuncBuilder) { // 4-word fault message
		f.LoadStride(b.msgSrc, 4, 4)
		f.StoreStride(b.msgDst, 4, 4)
	})
	f.Call("chooseThread")
	f.Call("exitRestore")
	f.Ret()

	// handleUndefined: like the page fault, with extra instruction
	// inspection.
	f = img.NewFunc(EntryUndefined)
	f.Call("entrySave")
	f.ALU(20)
	f.Load(b.faultTbl + 64)
	f.Call("vspaceOp")
	f.Call("decodeCap")
	f.ALU(8)
	f.Call("decodeCap") // rights re-validation, as in the fault path
	f.ALU(4)
	f.Loop(4, func(f *kimage.FuncBuilder) {
		f.LoadStride(b.msgSrc, 4, 4)
		f.StoreStride(b.msgDst, 4, 4)
	})
	f.Call("chooseThread")
	f.Call("exitRestore")
	f.Ret()
}

// pin marks the interrupt delivery path, the first 256 bytes of stack
// and key data regions for L1 way-locking (§4: 118 instruction lines,
// stack, key data — fitting in 1/4 of each cache). One locked way
// holds one line per cache set, so candidates whose set is already
// taken are dropped — the paper's "as much as would fit into 1/4 of
// the cache, without resorting to code placement optimisations".
func (b *builder) pin() {
	img := b.img
	be := img.Backend()
	line := uint32(be.LineBytes)
	var lines []uint32
	for _, fn := range []string{"entrySave", "irqDispatch", "chooseThread", "exitRestore", EntryInterrupt} {
		f := img.Funcs[fn]
		for _, blk := range f.Blocks {
			if blk.NumInstrs() == 0 {
				continue
			}
			start := blk.Addr &^ (line - 1)
			end := blk.InstrAddr(blk.NumInstrs() - 1)
			for a := start; a <= end; a += line {
				lines = append(lines, a)
			}
		}
	}
	img.PinLines(fitOneWay(lines, be.L1I)...)

	var data []uint32
	// First 256 bytes of stack.
	for off := uint32(0); off < 256; off += line {
		data = append(data, b.stack+off)
	}
	// Key data: interrupt controller, scheduler bitmap, first run
	// queues, fault table (each spilling into its second line).
	data = append(data, b.irqctl, b.irqctl+line, b.bitmap, b.bitmap+line,
		b.runq, b.runq+line, b.faultTbl, b.faultTbl+line)
	// IPC message buffers: fixed 480-byte regions whose transfer
	// loops dominate the syscall path's pinnable cost.
	for off := uint32(0); off < 4*msgWords; off += line {
		data = append(data, b.msgSrc+off, b.msgDst+off)
	}
	img.PinData(fitOneWay(data, be.L1D)...)
}

// fitOneWay deduplicates the candidate line addresses and keeps at most
// one line per cache set, the capacity of a single locked way.
func fitOneWay(in []uint32, g arch.CacheGeometry) []uint32 {
	setTaken := make(map[int]bool, g.Sets())
	var out []uint32
	for _, a := range in {
		line := a &^ uint32(g.LineBytes-1)
		set := int(line/uint32(g.LineBytes)) % g.Sets()
		if setTaken[set] {
			continue
		}
		setTaken[set] = true
		out = append(out, line)
	}
	return out
}

// LoopModels returns the §5.3 loop-bound models for the image's key
// loops: IR programs whose model-checked bounds justify the authored
// annotations. wcet.VerifyBounds cross-checks them; a tampered (too
// small) annotation is detected as unsound. The image's other
// annotated loops have no model; VerifyBounds names them.
func LoopModels(o Options, img *kimage.Image) ([]wcet.BoundModel, error) {
	singleLoop := func(fn string) (string, error) {
		f := img.Funcs[fn]
		if f == nil {
			return "", fmt.Errorf("kbin: no function %q", fn)
		}
		if len(f.LoopBounds) != 1 {
			return "", fmt.Errorf("kbin: %q has %d loops, want 1", fn, len(f.LoopBounds))
		}
		for h := range f.LoopBounds {
			return h, nil
		}
		return "", nil
	}
	deleteBound := int64(preDeleteWaiters)
	clearBound := int64(preClearChunks)
	if o.Modernised {
		// The preemption point truncates the analysed loop to a
		// single unit of work (§5.2 rule (b)).
		deleteBound, clearBound = 1, 1
	}
	type spec struct {
		fn   string
		prog *loopbound.Program
		head int
	}
	var specs []spec
	add := func(fn string, prog *loopbound.Program, head int) {
		specs = append(specs, spec{fn, prog, head})
	}
	p, h := loopbound.CapDecode(1)
	add("decodeCap", p, h)
	p, h = loopbound.CountedLoop(msgWords)
	add("transferMsg", p, h)
	p, h = loopbound.CountedLoop(deleteBound)
	add("epDelete", p, h)
	p, h = loopbound.CountedLoop(clearBound)
	add("clearObject", p, h)
	p, h = loopbound.CountedLoop(32)
	add("kernelWindowCopy", p, h)
	if o.Modernised {
		// The preempted §3.4 walk, one entry per analysed run. The
		// original kernel's unpreempted walk over up to
		// preDeleteWaiters entries is beyond the checker's havoc
		// enumeration, so it stays unmodelled.
		p, h = loopbound.BadgedAbortWalk(1)
		add("badgedAbort", p, h)
	}

	var out []wcet.BoundModel
	for _, s := range specs {
		header, err := singleLoop(s.fn)
		if err != nil {
			return nil, err
		}
		out = append(out, wcet.BoundModel{
			Func: s.fn, Header: header, Program: s.prog, Head: s.head,
		})
	}
	return out, nil
}
