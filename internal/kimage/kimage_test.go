package kimage

import (
	"strings"
	"testing"
	"testing/quick"

	"verikern/internal/arch"
)

func TestDataRefAddr(t *testing.T) {
	fixed := DataRef{Base: 0x1000}
	for i := uint64(0); i < 5; i++ {
		if fixed.Addr(i) != 0x1000 {
			t.Fatalf("fixed ref moved at i=%d", i)
		}
	}
	if !fixed.Fixed() {
		t.Error("fixed ref not Fixed")
	}
	walk := DataRef{Base: 0x2000, Stride: 32, Count: 4}
	want := []uint32{0x2000, 0x2020, 0x2040, 0x2060, 0x2000}
	for i, w := range want {
		if got := walk.Addr(uint64(i)); got != w {
			t.Errorf("walk.Addr(%d) = %#x, want %#x", i, got, w)
		}
	}
	if walk.Fixed() {
		t.Error("striding ref reported Fixed")
	}
}

func TestBuilderStraightLine(t *testing.T) {
	img := New()
	b := img.NewFunc("f")
	b.ALU(3).Load(0x1000).Store(0x2000)
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("straight-line function has %d blocks, want 1", len(f.Blocks))
	}
	blk := f.Entry()
	if blk.NumInstrs() != 5 {
		t.Errorf("entry has %d instrs, want 5", blk.NumInstrs())
	}
	if blk.Instrs[3].Data.Base != 0x1000 || blk.Instrs[3].Data.Write {
		t.Error("load ref wrong")
	}
	if blk.Instrs[4].Data.Base != 0x2000 || !blk.Instrs[4].Data.Write {
		t.Error("store ref wrong")
	}
	if blk.Addr < arch.ARM1136.KernelBase {
		t.Error("block linked below kernel base")
	}
	if blk.InstrAddr(2) != blk.Addr+8 {
		t.Error("instruction addressing wrong")
	}
}

func TestBuilderIfElse(t *testing.T) {
	img := New()
	b := img.NewFunc("f")
	b.ALU(1)
	b.If(func(b *FuncBuilder) { b.ALU(2) }, func(b *FuncBuilder) { b.ALU(3) })
	b.ALU(1)
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	// entry, then, join, else = 4 blocks
	if len(f.Blocks) != 4 {
		t.Fatalf("if/else produced %d blocks, want 4", len(f.Blocks))
	}
	entry := f.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("condition block has %d successors, want 2", len(entry.Succs))
	}
	for _, s := range entry.Succs {
		arm := blockNamed(f, s)
		if len(arm.Succs) != 1 {
			t.Errorf("arm %q has %d successors, want 1", s, len(arm.Succs))
		}
	}
}

// blockNamed returns f's block called name, or nil.
func blockNamed(f *Func, name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func TestBuilderLoopBound(t *testing.T) {
	img := New()
	b := img.NewFunc("f")
	header := b.Loop(10, func(b *FuncBuilder) { b.ALU(4) })
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	if got := f.LoopBounds[header]; got != 10 {
		t.Errorf("loop bound = %d, want 10", got)
	}
	h := blockNamed(f, header)
	if len(h.Succs) != 2 {
		t.Errorf("loop header has %d successors, want 2 (body, exit)", len(h.Succs))
	}
	// The body must branch back to the header.
	foundBack := false
	for _, blk := range f.Blocks {
		for _, s := range blk.Succs {
			if s == header && blk != f.Entry() && blk.Name != header {
				foundBack = true
			}
		}
	}
	if !foundBack {
		t.Error("no back edge to loop header")
	}
}

func TestBuilderCallValidation(t *testing.T) {
	img := New()
	b := img.NewFunc("caller")
	b.ALU(1).Call("callee")
	b.Ret()
	if err := img.Link(); err == nil {
		t.Fatal("Link accepted call to undefined function")
	}
	img2 := New()
	c := img2.NewFunc("callee")
	c.ALU(2)
	c.Ret()
	d := img2.NewFunc("caller")
	d.ALU(1).Call("callee")
	d.Ret()
	if err := img2.Link(); err != nil {
		t.Fatalf("Link rejected valid call: %v", err)
	}
}

func TestBuilderSwitchArms(t *testing.T) {
	img := New()
	b := img.NewFunc("f")
	arms := b.Switch(
		func(b *FuncBuilder) { b.ALU(1) },
		func(b *FuncBuilder) { b.ALU(2) },
		func(b *FuncBuilder) { b.ALU(3) },
	)
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	if len(arms) != 3 {
		t.Fatalf("Switch returned %d arm names, want 3", len(arms))
	}
	if len(f.Entry().Succs) != 3 {
		t.Errorf("switch head has %d successors, want 3", len(f.Entry().Succs))
	}
	for i, a := range arms {
		if blockNamed(f, a) == nil {
			t.Errorf("arm %d name %q not a block", i, a)
		}
	}
}

func TestImageDataAllocation(t *testing.T) {
	img := New()
	a := img.Data("runqueue", 1024)
	b := img.Data("endpoint", 64)
	if a == b {
		t.Error("distinct symbols share an address")
	}
	if line := uint32(arch.ARM1136.LineBytes); a%line != 0 || b%line != 0 {
		t.Error("data not line-aligned")
	}
	if again := img.Data("runqueue", 1024); again != a {
		t.Error("re-allocating a symbol moved it")
	}
	if got, ok := img.Symbol("endpoint"); !ok || got != b {
		t.Error("Symbol lookup failed")
	}
	if _, ok := img.Symbol("nope"); ok {
		t.Error("Symbol invented an address")
	}
}

func TestLinkAddressesDisjoint(t *testing.T) {
	img := New()
	f1 := img.NewFunc("alpha")
	f1.ALU(10)
	f1.Ret()
	f2 := img.NewFunc("beta")
	f2.ALU(10)
	f2.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]string)
	for name, f := range img.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				a := b.InstrAddr(i)
				if prev, dup := seen[a]; dup {
					t.Fatalf("address %#x used by both %s and %s", a, prev, name)
				}
				seen[a] = name
			}
		}
	}
	if img.CodeBytes() == 0 {
		t.Error("linked image reports zero code size")
	}
}

func TestValidateRejectsBadSuccessor(t *testing.T) {
	img := New()
	f := &Func{Name: "f", Blocks: []*Block{{Name: "a", Succs: []string{"nope"}}}}
	img.AddFunc(f)
	if err := img.Link(); err == nil {
		t.Error("Link accepted undefined successor")
	}
}

func TestValidateRejectsDuplicateBlocks(t *testing.T) {
	img := New()
	f := &Func{Name: "f", Blocks: []*Block{{Name: "a"}, {Name: "a"}}}
	img.AddFunc(f)
	if err := img.Link(); err == nil {
		t.Error("Link accepted duplicate block names")
	}
}

func TestPinnedSets(t *testing.T) {
	img := New()
	img.PinLines(0xF0000000, 0xF0000020)
	img.PinData(0xF0100008) // unaligned: must round down to line
	code := img.PinnedCodeSet()
	if len(code) != 2 || !code[0xF0000000] || !code[0xF0000020] {
		t.Errorf("pinned code set wrong: %v", code)
	}
	data := img.PinnedDataSet()
	if !data[0xF0100000] {
		t.Error("pinned data set did not align to line")
	}
}

// Property: the strided address formula always stays within the
// declared footprint [Base, Base+Stride*(Count-1)].
func TestPropertyStrideFootprint(t *testing.T) {
	f := func(base uint32, stride uint16, count uint8, i uint64) bool {
		if count == 0 {
			count = 1
		}
		d := DataRef{Base: base, Stride: uint32(stride), Count: uint32(count)}
		a := d.Addr(i)
		if d.Fixed() {
			return a == base
		}
		off := a - base
		return off%uint32(stride) == 0 && off/uint32(stride) < uint32(count)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDumpListing(t *testing.T) {
	img := New()
	data := img.Data("buf", 256)
	b := img.NewFunc("f")
	b.ALU(2).Load(data).StoreStride(data, 32, 4)
	b.Loop(5, func(b *FuncBuilder) { b.ALU(1) })
	b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := img.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<f>:", "loop header, bound 5", "alu", "load", "store", "ret", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestLinkOrderPlacesFirst(t *testing.T) {
	img := New()
	za := img.NewFunc("zeta")
	za.ALU(4)
	za.Ret()
	aa := img.NewFunc("alpha")
	aa.ALU(4)
	aa.Ret()
	img.LinkOrder = []string{"zeta"}
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	if img.Funcs["zeta"].Entry().Addr >= img.Funcs["alpha"].Entry().Addr {
		t.Error("LinkOrder did not place zeta first")
	}
	// Unknown names are rejected.
	img2 := New()
	f := img2.NewFunc("only")
	f.ALU(1)
	f.Ret()
	img2.LinkOrder = []string{"ghost"}
	if err := img2.Link(); err == nil {
		t.Error("Link accepted LinkOrder with undefined function")
	}
}

// TestLinkRefusesWrappingStride: Link accepts a striding reference
// whose last element's last byte is 0xFFFF_FFFF and refuses one a byte
// further, whose addresses would wrap the address space, naming its
// function and block. The extent is computed without overflow even
// when Stride·(Count−1) alone exceeds 32 bits.
func TestLinkRefusesWrappingStride(t *testing.T) {
	for _, tc := range []struct {
		base, stride, count uint32
		ok                  bool
	}{
		{0xFFFF_FFFC - 4*7, 4, 8, true},
		{0xFFFF_FFFD - 4*7, 4, 8, false},
		{0x0000_1000, 0x1000_0000, 16, true},
		{0x0000_1000, 0x1000_0000, 17, false},
		{0x0000_1000, 0xFFFF_FFFF, 0xFFFF_FFFF, false},
	} {
		img := New()
		b := img.NewFunc("f")
		b.ALU(1).LoadStride(tc.base, tc.stride, tc.count)
		b.Ret()
		err := img.Link()
		if tc.ok && err != nil {
			t.Errorf("[%#x +%#x x%d]: %v", tc.base, tc.stride, tc.count, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "f/"+img.Funcs["f"].Blocks[0].Name+":")) {
			t.Errorf("[%#x +%#x x%d]: Link error %v, want one naming f and its block", tc.base, tc.stride, tc.count, err)
		}
	}
}
