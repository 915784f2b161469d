// Package loopbound infers loop iteration bounds, reproducing the
// paper's §5.3 pipeline: obtain instruction semantics, compute a
// program slice that captures the loop's control-flow dependencies, and
// model-check the slice for the maximum execution count of the loop
// head.
//
// Programs are expressed in a small register IR (the stand-in for the
// ARMv7 formalisation of Fox & Myreen the paper uses). Slicing removes
// instructions the loop's exit conditions do not depend on; loads from
// unanalysable memory (LoadUnknown) are tolerated outside the slice but
// make the bound uncomputable inside it — exactly the limitation the
// paper reports for loops that "store and load critical values to and
// from memory".
//
// The model check explores the finite state space (program counter plus
// sliced register values); branches whose condition falls outside the
// slice become nondeterministic. The maximum number of loop-head visits
// on any path is the bound; a cycle that revisits a state while passing
// through the head means the loop is unbounded.
package loopbound

import (
	"fmt"
	"sort"
)

// Reg is a register index.
type Reg int

// Op is an IR operation.
type Op uint8

// IR operations.
const (
	// Const: Dst = Imm.
	Const Op = iota
	// Mov: Dst = Src1.
	Mov
	// Add: Dst = Src1 + Src2.
	Add
	// AddI: Dst = Src1 + Imm.
	AddI
	// Sub: Dst = Src1 - Src2.
	Sub
	// Mul: Dst = Src1 * Src2.
	Mul
	// Shr: Dst = Src1 >> Imm.
	Shr
	// And: Dst = Src1 & Imm.
	And
	// BLT: if Src1 < Src2 jump to Target.
	BLT
	// BGE: if Src1 >= Src2 jump to Target.
	BGE
	// BEQ: if Src1 == Src2 jump to Target.
	BEQ
	// BNE: if Src1 != Src2 jump to Target.
	BNE
	// Jmp: unconditional jump to Target.
	Jmp
	// LoadUnknown: Dst = an unanalysable memory value.
	LoadUnknown
	// Havoc: Dst = nondeterministic value in [Imm, Imm2].
	Havoc
	// Exit: program terminates.
	Exit
)

// Instr is one IR instruction.
type Instr struct {
	Op         Op
	Dst        Reg
	Src1, Src2 Reg
	Imm        int64
	Imm2       int64
	// Target is the branch destination (instruction index).
	Target int
}

// Program is a straight indexed list of instructions; execution starts
// at index 0.
type Program struct {
	Instrs  []Instr
	NumRegs int
}

func (p *Program) validate() error {
	for i, ins := range p.Instrs {
		switch ins.Op {
		case BLT, BGE, BEQ, BNE, Jmp:
			if ins.Target < 0 || ins.Target >= len(p.Instrs) {
				return fmt.Errorf("loopbound: instr %d: branch target %d out of range", i, ins.Target)
			}
		case Havoc:
			if ins.Imm2 < ins.Imm {
				return fmt.Errorf("loopbound: instr %d: empty havoc range [%d,%d]", i, ins.Imm, ins.Imm2)
			}
		}
		if int(ins.Dst) >= p.NumRegs || int(ins.Src1) >= p.NumRegs || int(ins.Src2) >= p.NumRegs {
			return fmt.Errorf("loopbound: instr %d: register out of range", i)
		}
	}
	if len(p.Instrs) == 0 {
		return fmt.Errorf("loopbound: empty program")
	}
	return nil
}

func (o Op) isBranch() bool {
	switch o {
	case BLT, BGE, BEQ, BNE:
		return true
	}
	return false
}

func (o Op) writes() bool {
	switch o {
	case Const, Mov, Add, AddI, Sub, Mul, Shr, And, LoadUnknown, Havoc:
		return true
	}
	return false
}

// srcRegs returns the registers an instruction reads.
func (ins Instr) srcRegs() []Reg {
	switch ins.Op {
	case Mov, AddI, Shr, And:
		return []Reg{ins.Src1}
	case Add, Sub, Mul, BLT, BGE, BEQ, BNE:
		return []Reg{ins.Src1, ins.Src2}
	}
	return nil
}

// Slice computes the set of instruction indices the loop head's
// execution count can depend on: the transitive data dependencies of
// every conditional branch in the program (any branch can affect the
// path taken to or around the head). The result also reports the set of
// relevant registers.
//
// This is a conservative slice in the spirit of Weiser's algorithm on
// an SSA-converted binary (§5.3): we iterate "relevant registers ←
// sources of instructions defining relevant registers" to a fixpoint,
// seeded with all branch conditions.
func Slice(p *Program) (instrs map[int]bool, regs map[Reg]bool) {
	regs = make(map[Reg]bool)
	instrs = make(map[int]bool)
	for i, ins := range p.Instrs {
		if ins.Op.isBranch() {
			instrs[i] = true
			for _, r := range ins.srcRegs() {
				regs[r] = true
			}
		}
		if ins.Op == Jmp || ins.Op == Exit {
			instrs[i] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i, ins := range p.Instrs {
			if !ins.Op.writes() || !regs[ins.Dst] {
				continue
			}
			if !instrs[i] {
				instrs[i] = true
				changed = true
			}
			for _, r := range ins.srcRegs() {
				if !regs[r] {
					regs[r] = true
					changed = true
				}
			}
		}
	}
	return instrs, regs
}

// state is a model-checking state: pc plus the values of sliced
// registers, rendered to a comparable key.
type state struct {
	pc   int
	regs string
}

// maxHavocRange bounds the fan-out of a nondeterministic assignment the
// checker will enumerate.
const maxHavocRange = 64

// maxStates bounds the explored state space.
const maxStates = 1 << 20

// UnknownRegs computes the registers whose values the analysis cannot
// know: those defined (directly or transitively) by LoadUnknown. The
// computation is flow-insensitive and therefore conservative — a
// register ever written from unanalysable memory is unknown everywhere.
// This is where the paper's "lack of pointer analysis" limitation
// lives (§5.3): branches on unknown registers become nondeterministic,
// and loops controlled by them cannot be bounded.
func UnknownRegs(p *Program) map[Reg]bool {
	unknown := make(map[Reg]bool)
	for changed := true; changed; {
		changed = false
		for _, ins := range p.Instrs {
			if !ins.Op.writes() || unknown[ins.Dst] {
				continue
			}
			tainted := ins.Op == LoadUnknown
			for _, r := range ins.srcRegs() {
				if unknown[r] {
					tainted = true
				}
			}
			if tainted {
				unknown[ins.Dst] = true
				changed = true
			}
		}
	}
	return unknown
}

// Bound computes the maximum number of times instruction 'head'
// executes on any run of the program. It returns an error if the
// program is invalid, if the loop is unbounded (including loops whose
// exit conditions depend on unanalysable memory), or if the state
// space is too large.
func Bound(p *Program, head int) (int, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if head < 0 || head >= len(p.Instrs) {
		return 0, fmt.Errorf("loopbound: head %d out of range", head)
	}
	_, regSet := Slice(p)
	unknown := UnknownRegs(p)
	// Track only registers that are both relevant to control flow
	// and analysable.
	tracked := make([]Reg, 0, len(regSet))
	for r := range regSet {
		if !unknown[r] {
			tracked = append(tracked, r)
		}
	}
	sort.Slice(tracked, func(i, j int) bool { return tracked[i] < tracked[j] })
	trackedSet := make(map[Reg]bool, len(tracked))
	for _, r := range tracked {
		trackedSet[r] = true
	}

	mc := &checker{
		p:       p,
		head:    head,
		regSet:  trackedSet,
		tracked: tracked,
		memo:    make(map[state]int),
		color:   make(map[state]uint8),
	}
	regs := make([]int64, p.NumRegs)
	n, err := mc.explore(state{pc: 0, regs: mc.key(regs)}, regs)
	if err != nil {
		return 0, err
	}
	return n, nil
}

type checker struct {
	p       *Program
	head    int
	regSet  map[Reg]bool // tracked: control-relevant and analysable
	tracked []Reg
	memo    map[state]int
	color   map[state]uint8 // 1 = on stack, 2 = done
	states  int
}

func (c *checker) key(regs []int64) string {
	buf := make([]byte, 0, len(c.tracked)*8)
	for _, r := range c.tracked {
		v := regs[r]
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>s))
		}
	}
	return string(buf)
}

// explore returns the maximum number of head executions from st onward
// (inclusive of st itself if st.pc == head).
func (c *checker) explore(st state, regs []int64) (int, error) {
	if n, ok := c.memo[st]; ok {
		return n, nil
	}
	if c.color[st] == 1 {
		return 0, fmt.Errorf("loopbound: state cycle at pc %d: loop not bounded by analysable registers (it may depend on unanalysable memory)", st.pc)
	}
	c.states++
	if c.states > maxStates {
		return 0, fmt.Errorf("loopbound: state space exceeds %d states", maxStates)
	}
	c.color[st] = 1
	defer func() { c.color[st] = 2 }()

	self := 0
	if st.pc == c.head {
		self = 1
	}
	ins := c.p.Instrs[st.pc]
	var best int
	step := func(nextPC int, nregs []int64) error {
		n, err := c.explore(state{pc: nextPC, regs: c.key(nregs)}, nregs)
		if err != nil {
			return err
		}
		if n > best {
			best = n
		}
		return nil
	}
	cloneWith := func(dst Reg, v int64) []int64 {
		out := make([]int64, len(regs))
		copy(out, regs)
		if c.regSet[dst] {
			out[dst] = v
		}
		return out
	}

	switch ins.Op {
	case Exit:
		// best stays 0.
	case Jmp:
		if err := step(ins.Target, regs); err != nil {
			return 0, err
		}
	case BLT, BGE, BEQ, BNE:
		known := c.regSet[ins.Src1] && c.regSet[ins.Src2]
		if known {
			a, b := regs[ins.Src1], regs[ins.Src2]
			taken := false
			switch ins.Op {
			case BLT:
				taken = a < b
			case BGE:
				taken = a >= b
			case BEQ:
				taken = a == b
			case BNE:
				taken = a != b
			}
			next := st.pc + 1
			if taken {
				next = ins.Target
			}
			if err := step(next, regs); err != nil {
				return 0, err
			}
		} else {
			// Condition outside the slice: explore both arms.
			if err := step(ins.Target, regs); err != nil {
				return 0, err
			}
			if err := step(st.pc+1, regs); err != nil {
				return 0, err
			}
		}
	case Havoc:
		if !c.regSet[ins.Dst] {
			if err := step(st.pc+1, regs); err != nil {
				return 0, err
			}
			break
		}
		if ins.Imm2-ins.Imm+1 > maxHavocRange {
			return 0, fmt.Errorf("loopbound: havoc range [%d,%d] too large to enumerate", ins.Imm, ins.Imm2)
		}
		for v := ins.Imm; v <= ins.Imm2; v++ {
			if err := step(st.pc+1, cloneWith(ins.Dst, v)); err != nil {
				return 0, err
			}
		}
	case LoadUnknown:
		// The destination is untracked by construction; the
		// loaded value is irrelevant to the explored state.
		if err := step(st.pc+1, regs); err != nil {
			return 0, err
		}
	default:
		var v int64
		switch ins.Op {
		case Const:
			v = ins.Imm
		case Mov:
			v = regs[ins.Src1]
		case Add:
			v = regs[ins.Src1] + regs[ins.Src2]
		case AddI:
			v = regs[ins.Src1] + ins.Imm
		case Sub:
			v = regs[ins.Src1] - regs[ins.Src2]
		case Mul:
			v = regs[ins.Src1] * regs[ins.Src2]
		case Shr:
			v = regs[ins.Src1] >> uint(ins.Imm)
		case And:
			v = regs[ins.Src1] & ins.Imm
		default:
			return 0, fmt.Errorf("loopbound: unknown op %d", ins.Op)
		}
		if err := step(st.pc+1, cloneWith(ins.Dst, v)); err != nil {
			return 0, err
		}
	}
	total := self + best
	c.memo[st] = total
	return total, nil
}
