package loopbound

// This file provides IR models of the seL4 loops the paper's analysis
// bounds (§5.3): the explicit counter loop, the scheduler's priority
// scan with its early exit, the guarded cap-space decode loop and the
// preempted badged-abort walk. The kernel image's bound-verification
// pass (kbin.LoopModels) cross-checks its authored annotations against
// their inferred bounds.

// CountedLoop builds "for i = 0; i < n; i++ { body }" where the body is
// irrelevant to the bound (modelled as an unanalysable load). The head
// (the loop's comparison) is returned with the program.
func CountedLoop(n int64) (*Program, int) {
	// r0 = i, r1 = n, r2 = scratch body value.
	p := &Program{NumRegs: 3}
	p.Instrs = []Instr{
		{Op: Const, Dst: 0, Imm: 0},
		{Op: Const, Dst: 1, Imm: n},
		// 2: head: if i >= n goto exit(6)
		{Op: BGE, Src1: 0, Src2: 1, Target: 6},
		{Op: LoadUnknown, Dst: 2}, // body
		{Op: AddI, Dst: 0, Src1: 0, Imm: 1},
		{Op: Jmp, Target: 2},
		{Op: Exit},
	}
	return p, 2
}

// SchedulerScan models the pre-bitmap scheduler of Fig. 3: a loop over
// all prios priorities testing each run queue's head (an unanalysable
// memory value) and exiting early when one is non-empty. The early exit
// does not affect the worst-case bound of prios.
func SchedulerScan(prios int64) (*Program, int) {
	// r0 = prio, r1 = prios, r2 = queue head, r3 = zero.
	p := &Program{NumRegs: 4}
	p.Instrs = []Instr{
		{Op: Const, Dst: 0, Imm: 0},
		{Op: Const, Dst: 1, Imm: prios},
		{Op: Const, Dst: 3, Imm: 0},
		// 3: head: if prio >= prios goto idle(8)
		{Op: BGE, Src1: 0, Src2: 1, Target: 8},
		{Op: LoadUnknown, Dst: 2}, // runQueue[prio].head
		// if head != 0 return thread — an unknown-condition
		// branch: the checker explores both arms.
		{Op: BNE, Src1: 2, Src2: 3, Target: 9},
		{Op: AddI, Dst: 0, Src1: 0, Imm: 1},
		{Op: Jmp, Target: 3},
		{Op: Exit}, // idle thread
		{Op: Exit}, // found thread
	}
	return p, 3
}

// CapDecode models the capability-space decode loop (§6.1, Fig. 7): an
// addrBits-wide capability address consumed level by level, one level
// per iteration. bitsPerLevel is the minimum number of address bits a
// level consumes (1 in the adversarial worst case).
func CapDecode(addrBits, bitsPerLevel int64) (*Program, int) {
	// r0 = bits remaining, r1 = zero, r2 = node (unknown).
	p := &Program{NumRegs: 3}
	p.Instrs = []Instr{
		{Op: Const, Dst: 0, Imm: addrBits},
		{Op: Const, Dst: 1, Imm: 0},
		// 2: head: if bitsRemaining == 0 goto done(6)
		{Op: BEQ, Src1: 0, Src2: 1, Target: 6},
		{Op: LoadUnknown, Dst: 2}, // follow the next CNode
		{Op: AddI, Dst: 0, Src1: 0, Imm: -bitsPerLevel},
		{Op: Jmp, Target: 2},
		{Op: Exit},
	}
	return p, 2
}

// BadgedAbortWalk models the preempted badged-abort loop of §3.4: the
// iteration count is bounded by the queue length captured at operation
// start — here an input between 0 and maxQueue, expressed as a havoc so
// the checker proves the bound for every queue length.
func BadgedAbortWalk(maxQueue int64) (*Program, int) {
	// r0 = remaining, r1 = zero.
	p := &Program{NumRegs: 2}
	p.Instrs = []Instr{
		{Op: Havoc, Dst: 0, Imm: 0, Imm2: maxQueue},
		{Op: Const, Dst: 1, Imm: 0},
		// 2: head: if remaining == 0 goto exit(5)
		{Op: BEQ, Src1: 0, Src2: 1, Target: 5},
		{Op: AddI, Dst: 0, Src1: 0, Imm: -1},
		{Op: Jmp, Target: 2},
		{Op: Exit},
	}
	return p, 2
}
