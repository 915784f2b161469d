package kobj

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func newTestManager(t *testing.T) (*Manager, *Untyped) {
	t.Helper()
	m := NewManager()
	u, err := m.NewRootUntyped(24) // 16 MiB
	if err != nil {
		t.Fatal(err)
	}
	return m, u
}

func TestRetypeAlignmentAndOverlap(t *testing.T) {
	m, u := newTestManager(t)
	objs, err := m.Retype(u, TypeTCB, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := m.Retype(u, TypeEndpoint, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	all := append(objs, eps...)
	for _, o := range all {
		h := o.Hdr()
		if h.PAddr%(1<<h.SizeBits) != 0 {
			t.Errorf("object %d at %#x not aligned to 2^%d", h.ID, h.PAddr, h.SizeBits)
		}
		if h.PAddr < u.PAddr || h.End() > u.End() {
			t.Errorf("object %d outside its untyped", h.ID)
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if Overlaps(all[i], all[j]) {
				t.Errorf("objects %d and %d overlap", all[i].Hdr().ID, all[j].Hdr().ID)
			}
		}
	}
}

func TestRetypeExhaustion(t *testing.T) {
	m := NewManager()
	u, err := m.NewRootUntyped(12) // 4 KiB
	if err != nil {
		t.Fatal(err)
	}
	// 8 TCBs of 512 B fill it exactly.
	if _, err := m.Retype(u, TypeTCB, 0, 8); err != nil {
		t.Fatal(err)
	}
	if u.FreeBytes() != 0 {
		t.Errorf("free bytes = %d, want 0", u.FreeBytes())
	}
	if _, err := m.Retype(u, TypeTCB, 0, 1); err == nil {
		t.Error("retype succeeded on exhausted untyped")
	}
}

func TestRetypeInvalidParams(t *testing.T) {
	m, u := newTestManager(t)
	cases := []struct {
		t     ObjType
		param uint8
		count int
	}{
		{TypeFrame, 4, 1},   // too small
		{TypeFrame, 30, 1},  // too large
		{TypeCNode, 0, 1},   // zero radix
		{TypeTCB, 0, 0},     // zero count
		{TypeTCB, 0, -1},    // negative count
		{TypeUntyped, 2, 1}, // tiny untyped
	}
	for _, c := range cases {
		if _, err := m.Retype(u, c.t, c.param, c.count); err == nil {
			t.Errorf("Retype(%v, %d, %d) succeeded", c.t, c.param, c.count)
		}
	}
}

func TestCNodeRetypeSlots(t *testing.T) {
	m, u := newTestManager(t)
	objs, err := m.Retype(u, TypeCNode, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cn := objs[0].(*CNode)
	if cn.NumSlots() != 256 {
		t.Errorf("CNode has %d slots, want 256", cn.NumSlots())
	}
	if cn.SizeBits != 12 { // 256 * 16 B
		t.Errorf("CNode size 2^%d, want 2^12", cn.SizeBits)
	}
	for i := 0; i < cn.NumSlots(); i++ {
		s := cn.Slot(i)
		if s.CNode != cn || s.Index != i || !s.IsEmpty() {
			t.Fatalf("slot %d miswired", i)
		}
	}
}

// TestCNodeSlotLeaves: a large CNode allocates its slot leaves on first
// access, Decode reads an untouched leaf as empty slots without
// allocating it, and slot pointers stay put as other leaves fill in. A
// CNode of one leaf has its slots from retype, with no separate leaf
// table.
func TestCNodeSlotLeaves(t *testing.T) {
	m, u := newTestManager(t)
	objs, err := m.Retype(u, TypeCNode, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cn := objs[0].(*CNode)
	allocated := func() (n int) {
		for _, l := range cn.leaves {
			if l != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("fresh radix-12 CNode has %d leaves, want 0", n)
	}
	root := Cap{Type: CapCNode, Obj: cn}
	for _, c := range []struct {
		guard  uint8
		reason string
	}{{0, "empty slot mid-decode"}, {20, "empty slot"}} {
		cn.GuardBits = c.guard
		_, err := Decode(root, 100<<(20-c.guard))
		if de, ok := err.(*DecodeError); !ok || de.Reason != c.reason {
			t.Errorf("guard %d: decode through an absent leaf: %v, want %q", c.guard, err, c.reason)
		}
	}
	if n := allocated(); n != 0 {
		t.Fatalf("decode allocated %d leaves", n)
	}
	s := cn.Slot(100)
	if s.CNode != cn || s.Index != 100 || !s.IsEmpty() {
		t.Fatalf("slot 100 miswired: %+v", s)
	}
	epObjs, err := m.Retype(u, TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Cap = Cap{Type: CapEndpoint, Obj: epObjs[0]}
	if last := cn.Slot(cn.NumSlots() - 1); last.Index != cn.NumSlots()-1 || last.CNode != cn {
		t.Errorf("last slot miswired: %+v", last)
	}
	cn.Slot(0)
	if n := allocated(); n != 3 {
		t.Errorf("%d leaves after touching three, want 3", n)
	}
	res, err := Decode(root, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot != s || cn.Slot(100) != s {
		t.Error("slot 100 moved when other leaves were allocated")
	}

	objs, err = m.Retype(u, TypeCNode, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := objs[0].(*CNode)
	if &small.leaves[0] != &small.leaf0[0] || len(small.leaf0[0]) != 2 {
		t.Errorf("radix-1 CNode: %d leaf entries, table inline %v; want 2 slots in the inline table",
			len(small.leaf0[0]), &small.leaves[0] == &small.leaf0[0])
	}
}

func TestDestroyRemovesFromLiveSet(t *testing.T) {
	m, u := newTestManager(t)
	objs, err := m.Retype(u, TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ep := objs[0]
	before := len(m.Objects())
	m.Destroy(ep)
	if len(m.Objects()) != before-1 {
		t.Error("Destroy did not shrink live set")
	}
	if !ep.Hdr().Destroyed {
		t.Error("Destroy did not mark object")
	}
	for _, c := range u.Children {
		if c == ep {
			t.Error("Destroy left object in untyped children")
		}
	}
}

// buildCSpace constructs a cap space: root CNode with radix bits r0 and
// guard g, holding a leaf endpoint cap.
func buildLinearCSpace(t *testing.T, m *Manager, u *Untyped, levels int) (Cap, uint32, *Endpoint) {
	t.Helper()
	// Each level consumes 32/levels bits via radix 1 + guard
	// (32/levels - 1). For simplicity use radix 1, guard bits
	// filling the rest evenly; here: levels of (radix 1, guard
	// (32/levels)-1) with guard value 0.
	per := 32 / levels
	if per*levels != 32 {
		t.Fatalf("levels %d does not divide 32", levels)
	}
	epObjs, err := m.Retype(u, TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ep := epObjs[0].(*Endpoint)

	var next Cap = Cap{Type: CapEndpoint, Obj: ep, Rights: RightsAll}
	for l := 0; l < levels; l++ {
		objs, err := m.Retype(u, TypeCNode, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		cn := objs[0].(*CNode)
		cn.GuardBits = uint8(per - 1)
		cn.GuardValue = 0
		cn.Slot(1).Cap = next // address bit 1 at each level
		next = Cap{Type: CapCNode, Obj: cn, Rights: RightsAll}
	}
	// Address: each level consumes per-1 guard zeros then index bit
	// 1: so the address is a repeating pattern of 0^(per-1) 1.
	var addr uint32
	for l := 0; l < levels; l++ {
		addr = addr<<uint(per) | 1
	}
	return next, addr, ep
}

func TestDecodeLinear32Levels(t *testing.T) {
	m, u := newTestManager(t)
	root, addr, ep := buildLinearCSpace(t, m, u, 32)
	res, err := Decode(root, addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 32 {
		t.Errorf("decode used %d levels, want 32 (the Fig. 7 worst case)", res.Levels)
	}
	if res.Slot.Cap.Endpoint() != ep {
		t.Error("decode returned wrong object")
	}
}

// TestDecodeChain checks the Fig. 7 chain at every depth: the address
// decodes through exactly levels CNodes to the leaf, and the CNodes are
// named by level from the outermost.
func TestDecodeChain(t *testing.T) {
	for _, levels := range []int{1, 11, 32} {
		m, u := newTestManager(t)
		epObjs, err := m.Retype(u, TypeEndpoint, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		leaf := Cap{Type: CapEndpoint, Obj: epObjs[0], Rights: RightsAll}
		root, addr, err := m.DecodeChain(u, leaf, levels, func(l int) string { return fmt.Sprintf("c%d", l) })
		if err != nil {
			t.Fatal(err)
		}
		res, err := Decode(root, addr)
		if err != nil {
			t.Fatalf("levels %d: %v", levels, err)
		}
		if res.Levels != levels || res.Slot.Cap.Obj != leaf.Obj {
			t.Errorf("levels %d: decode used %d levels to reach %v", levels, res.Levels, res.Slot.Cap)
		}
		if name := root.Obj.(*CNode).Name; name != "c1" {
			t.Errorf("levels %d: outermost CNode named %q, want c1", levels, name)
		}
	}
}

func TestDecodeShallow(t *testing.T) {
	m, u := newTestManager(t)
	// One level: radix 8, guard 24 bits of zeros.
	objs, err := m.Retype(u, TypeCNode, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cn := objs[0].(*CNode)
	cn.GuardBits = 24
	epObjs, _ := m.Retype(u, TypeEndpoint, 0, 1)
	ep := epObjs[0].(*Endpoint)
	cn.Slot(42).Cap = Cap{Type: CapEndpoint, Obj: ep}
	root := Cap{Type: CapCNode, Obj: cn}
	res, err := Decode(root, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 1 || res.Slot.Cap.Endpoint() != ep {
		t.Errorf("decode = %d levels, want 1", res.Levels)
	}
}

func TestDecodeErrors(t *testing.T) {
	m, u := newTestManager(t)
	objs, _ := m.Retype(u, TypeCNode, 8, 1)
	cn := objs[0].(*CNode)
	cn.GuardBits = 24
	cn.GuardValue = 5
	root := Cap{Type: CapCNode, Obj: cn}

	if _, err := Decode(Cap{}, 0); err == nil {
		t.Error("decode accepted null root")
	}
	if _, err := Decode(root, 42); err == nil {
		t.Error("decode accepted guard mismatch")
	}
	// Correct guard, empty slot.
	addr := uint32(5)<<8 | 42
	if _, err := Decode(root, addr); err == nil {
		t.Error("decode returned an empty slot")
	}
}

func TestMDBInsertRemoveChildren(t *testing.T) {
	m, u := newTestManager(t)
	objs, _ := m.Retype(u, TypeCNode, 4, 1)
	cn := objs[0].(*CNode)
	epObjs, _ := m.Retype(u, TypeEndpoint, 0, 1)
	ep := epObjs[0].(*Endpoint)

	root := cn.Slot(0)
	m.SetCap(root, Cap{Type: CapEndpoint, Obj: ep, Rights: RightsAll}, nil)
	c1 := cn.Slot(1)
	m.SetCap(c1, Cap{Type: CapEndpoint, Obj: ep, Badge: 7}, root)
	c2 := cn.Slot(2)
	m.SetCap(c2, Cap{Type: CapEndpoint, Obj: ep, Badge: 8}, root)
	g1 := cn.Slot(3)
	m.SetCap(g1, Cap{Type: CapEndpoint, Obj: ep, Badge: 7}, c1)

	kids := m.Children(root)
	if len(kids) != 3 {
		t.Fatalf("root has %d descendants, want 3", len(kids))
	}
	if m.IsFinal(root) {
		t.Error("root reported final with derived caps live")
	}
	// Depths: children of root are depth 1, grandchild depth 2.
	if c1.MDBDepth != 1 || c2.MDBDepth != 1 || g1.MDBDepth != 2 {
		t.Errorf("depths = %d,%d,%d; want 1,1,2", c1.MDBDepth, c2.MDBDepth, g1.MDBDepth)
	}
}

func TestRevokeStepIncremental(t *testing.T) {
	m, u := newTestManager(t)
	objs, _ := m.Retype(u, TypeCNode, 6, 1)
	cn := objs[0].(*CNode)
	epObjs, _ := m.Retype(u, TypeEndpoint, 0, 1)
	ep := epObjs[0].(*Endpoint)

	root := cn.Slot(0)
	m.SetCap(root, Cap{Type: CapEndpoint, Obj: ep, Rights: RightsAll}, nil)
	for i := 1; i <= 10; i++ {
		m.SetCap(cn.Slot(i), Cap{Type: CapEndpoint, Obj: ep, Badge: uint32(i)}, root)
	}
	steps := 0
	for m.RevokeStep(root) {
		steps++
		if steps > 20 {
			t.Fatal("revocation did not terminate")
		}
	}
	steps++ // the final step that returned false still deleted one
	if steps != 10 {
		t.Errorf("revocation took %d steps, want 10 (one per child)", steps)
	}
	if len(m.Children(root)) != 0 {
		t.Error("children remain after revocation")
	}
	if !m.IsFinal(root) {
		t.Error("root not final after revoking all children")
	}
}

func TestRevokeStepOnLeaf(t *testing.T) {
	m, u := newTestManager(t)
	objs, _ := m.Retype(u, TypeCNode, 4, 1)
	cn := objs[0].(*CNode)
	epObjs, _ := m.Retype(u, TypeEndpoint, 0, 1)
	root := cn.Slot(0)
	m.SetCap(root, Cap{Type: CapEndpoint, Obj: epObjs[0]}, nil)
	if m.RevokeStep(root) {
		t.Error("RevokeStep on childless cap reported work")
	}
}

func TestClearSlotUnlinks(t *testing.T) {
	m, u := newTestManager(t)
	objs, _ := m.Retype(u, TypeCNode, 4, 1)
	cn := objs[0].(*CNode)
	epObjs, _ := m.Retype(u, TypeEndpoint, 0, 1)
	ep := epObjs[0].(*Endpoint)
	a := cn.Slot(0)
	b := cn.Slot(1)
	m.SetCap(a, Cap{Type: CapEndpoint, Obj: ep}, nil)
	m.SetCap(b, Cap{Type: CapEndpoint, Obj: ep, Badge: 3}, a)
	m.ClearSlot(b)
	if !b.IsEmpty() || b.MDBNext != nil || b.MDBPrev != nil {
		t.Error("ClearSlot left links or cap")
	}
	if !m.IsFinal(a) {
		t.Error("a not final after clearing the derived cap")
	}
}

// Property: after any sequence of retypes, all live objects stay
// aligned and pairwise disjoint — the §2.2 object invariants.
func TestPropertyRetypeInvariants(t *testing.T) {
	f := func(kinds []uint8) bool {
		m := NewManager()
		u, err := m.NewRootUntyped(20)
		if err != nil {
			return false
		}
		for _, k := range kinds {
			types := []ObjType{TypeTCB, TypeEndpoint, TypeCNode, TypeFrame, TypePageTable, TypePageDirectory}
			ty := types[int(k)%len(types)]
			param := uint8(0)
			if ty == TypeCNode {
				param = 4
			}
			if ty == TypeFrame {
				param = 12
			}
			// Exhaustion errors are fine; invariants must
			// hold regardless.
			_, _ = m.Retype(u, ty, param, 1+int(k)%3)
		}
		objs := m.Objects()
		for i := range objs {
			h := objs[i].Hdr()
			if h.PAddr%(1<<h.SizeBits) != 0 {
				return false
			}
			for j := i + 1; j < len(objs); j++ {
				// A retyped child lies inside its parent
				// untyped: containment is legal, partial
				// overlap never is.
				if Overlaps(objs[i], objs[j]) && !Contains(objs[i], objs[j]) && !Contains(objs[j], objs[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestThreadStateStrings(t *testing.T) {
	states := []ThreadState{ThreadInactive, ThreadRunning, ThreadRunnable,
		ThreadBlockedOnSend, ThreadBlockedOnRecv, ThreadBlockedOnReply}
	for _, s := range states {
		if s.String() == "unknown" {
			t.Errorf("state %d has no name", s)
		}
	}
	if !ThreadRunning.Runnable() || !ThreadRunnable.Runnable() {
		t.Error("running/runnable not Runnable")
	}
	if ThreadBlockedOnSend.Runnable() {
		t.Error("blocked state Runnable")
	}
}

func TestCapAndTypeStrings(t *testing.T) {
	m, u := newTestManager(t)
	eps, _ := m.Retype(u, TypeEndpoint, 0, 1)
	ep := eps[0].(*Endpoint)
	c := Cap{Type: CapEndpoint, Obj: ep, Badge: 7}
	s := c.String()
	if !strings.Contains(s, "endpoint") || !strings.Contains(s, "badge=7") {
		t.Errorf("cap string %q incomplete", s)
	}
	if (Cap{}).String() != "<null cap>" {
		t.Error("null cap string wrong")
	}
	for ct := CapNull; ct <= CapNotification; ct++ {
		if ct.String() == "unknown" {
			t.Errorf("cap type %d unnamed", ct)
		}
	}
	for ot := TypeUntyped; ot <= TypeASIDPool; ot++ {
		if ot.String() == "unknown" {
			t.Errorf("obj type %d unnamed", ot)
		}
	}
}

func TestDecodeErrorMessage(t *testing.T) {
	e := &DecodeError{Addr: 0x42, Depth: 3, Reason: "guard mismatch"}
	msg := e.Error()
	if !strings.Contains(msg, "0x42") || !strings.Contains(msg, "guard mismatch") {
		t.Errorf("decode error %q incomplete", msg)
	}
}

func TestObjectSizeBitsExported(t *testing.T) {
	if b, err := ObjectSizeBits(TypeTCB, 0); err != nil || b != 9 {
		t.Errorf("TCB size bits = %d, %v", b, err)
	}
	if b, err := ObjectSizeBits(TypeNotification, 0); err != nil || b != 4 {
		t.Errorf("notification size bits = %d, %v", b, err)
	}
	if _, err := ObjectSizeBits(TypeFrame, 2); err == nil {
		t.Error("invalid frame size accepted")
	}
}

func TestUntypedString(t *testing.T) {
	m, _ := newTestManager(t)
	u2, _ := m.NewRootUntyped(12)
	if !strings.Contains(u2.String(), "untyped[") {
		t.Errorf("untyped string %q", u2.String())
	}
}

func TestNotificationQueueLen(t *testing.T) {
	n := &Notification{}
	if n.QueueLen() != 0 {
		t.Error("fresh notification has waiters")
	}
	a := &TCB{Name: "a"}
	b := &TCB{Name: "b"}
	n.QHead, n.QTail = a, b
	a.EPNext, b.EPPrev = b, a
	if n.QueueLen() != 2 {
		t.Errorf("queue len %d, want 2", n.QueueLen())
	}
}

func TestDecodeGuardBitsOverflow(t *testing.T) {
	m, u := newTestManager(t)
	objs, _ := m.Retype(u, TypeCNode, 8, 1)
	cn := objs[0].(*CNode)
	cn.GuardBits = 30 // 30 guard + 8 radix > 32
	root := Cap{Type: CapCNode, Obj: cn}
	if _, err := Decode(root, 1); err == nil {
		t.Error("decode accepted guard+radix exceeding the address width")
	}
}
