package loopbound

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCountedLoopBound(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 100, 256} {
		p, head := CountedLoop(n)
		got, err := Bound(p, head)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// The head executes n+1 times (n body entries + final test).
		if got != int(n)+1 {
			t.Errorf("n=%d: bound = %d, want %d", n, got, n+1)
		}
	}
}

func TestSchedulerScanBound(t *testing.T) {
	p, head := SchedulerScan()
	got, err := Bound(p, head)
	if err != nil {
		t.Fatal(err)
	}
	if got != 257 {
		t.Errorf("scheduler scan bound = %d, want 257 (256 iterations + exit test)", got)
	}
}

func TestClearChunkBound(t *testing.T) {
	p, head := ClearChunk(1024)
	got, err := Bound(p, head)
	if err != nil {
		t.Fatal(err)
	}
	if got != 257 { // 256 words + final test
		t.Errorf("clear bound = %d, want 257", got)
	}
}

func TestCapDecodeBound(t *testing.T) {
	p, head := CapDecode(1)
	got, err := Bound(p, head)
	if err != nil {
		t.Fatal(err)
	}
	if got != 33 { // 32 levels + final test
		t.Errorf("cap decode bound = %d, want 33", got)
	}
	// With 4 bits consumed per level, only 8 levels.
	p4, head4 := CapDecode(4)
	got4, err := Bound(p4, head4)
	if err != nil {
		t.Fatal(err)
	}
	if got4 != 9 {
		t.Errorf("4-bit decode bound = %d, want 9", got4)
	}
}

func TestUnboundedListWalkFails(t *testing.T) {
	p, head := UnboundedListWalk()
	_, err := Bound(p, head)
	if err == nil {
		t.Fatal("Bound accepted an unbounded list walk")
	}
	if !strings.Contains(err.Error(), "memory") {
		t.Errorf("error does not mention unanalysable memory: %v", err)
	}
}

func TestHavocBound(t *testing.T) {
	p, head := BadgedAbortWalk(16)
	got, err := Bound(p, head)
	if err != nil {
		t.Fatal(err)
	}
	if got != 17 { // 16 decrements + final test, for the largest input
		t.Errorf("havoc bound = %d, want 17", got)
	}
}

func TestHavocRangeTooLarge(t *testing.T) {
	p, head := BadgedAbortWalk(1000)
	if _, err := Bound(p, head); err == nil {
		t.Error("Bound enumerated an oversized havoc range")
	}
}

func TestInfiniteLoopDetected(t *testing.T) {
	p := &Program{NumRegs: 1, Instrs: []Instr{
		{Op: Const, Dst: 0, Imm: 0},
		{Op: Jmp, Target: 1},
	}}
	if _, err := Bound(p, 1); err == nil {
		t.Error("Bound accepted an infinite loop")
	}
}

func TestSliceExcludesIrrelevant(t *testing.T) {
	p, head := CountedLoop(5)
	instrs, regs := Slice(p)
	// The body's LoadUnknown (index 3) writes r2, which no branch
	// depends on: it must be outside the slice.
	if instrs[3] {
		t.Error("slice includes the irrelevant body load")
	}
	if regs[2] {
		t.Error("slice includes the irrelevant body register")
	}
	// The counter update and the bound are inside.
	if !instrs[4] || !instrs[0] || !instrs[1] {
		t.Error("slice misses counter-relevant instructions")
	}
	_ = head
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []*Program{
		{NumRegs: 1}, // empty
		{NumRegs: 1, Instrs: []Instr{{Op: Jmp, Target: 5}}},         // bad target
		{NumRegs: 1, Instrs: []Instr{{Op: Havoc, Imm: 3, Imm2: 1}}}, // empty havoc
		{NumRegs: 1, Instrs: []Instr{{Op: Add, Dst: 2, Src1: 0}}},   // bad reg
	}
	for i, p := range cases {
		if _, err := Bound(p, 0); err == nil {
			t.Errorf("case %d: Bound accepted invalid program", i)
		}
	}
}

// Property: nested nondeterministic branches never increase a counted
// loop's bound beyond its counter limit.
func TestPropertyNondetBranchesDontInflate(t *testing.T) {
	f := func(n uint8) bool {
		limit := int64(n%32) + 1
		// for i < limit { if unknown {..} ; i++ }
		p := &Program{NumRegs: 4, Instrs: []Instr{
			{Op: Const, Dst: 0, Imm: 0},
			{Op: Const, Dst: 1, Imm: limit},
			{Op: BGE, Src1: 0, Src2: 1, Target: 8}, // head
			{Op: LoadUnknown, Dst: 2},
			{Op: BNE, Src1: 2, Src2: 3, Target: 6}, // unknown cond
			{Op: LoadUnknown, Dst: 2},
			{Op: AddI, Dst: 0, Src1: 0, Imm: 1},
			{Op: Jmp, Target: 2},
			{Op: Exit},
		}}
		b, err := Bound(p, 2)
		return err == nil && b == int(limit)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
