package kobj

import (
	"fmt"

	"verikern/internal/arch"
)

// Manager owns the kernel's object and capability book-keeping: the
// physical memory layout, the set of live objects, and the capability
// derivation tree (seL4's "mapping database"). Its consistency is one
// of the invariant families the proof maintains (§2.2: "seL4 maintains
// a complex data-structure that stores information about what objects
// exist on the system and who has access to them").
type Manager struct {
	nextID   uint64
	nextAddr uint32
	memEnd   uint32
	// objects holds every live object, for the alignment and
	// non-overlap invariants.
	objects []Object
	// mdbHead is the sentinel of the global derivation-tree list.
	mdbHead Slot
}

// NewManager creates a manager over the default (ARM1136) backend's
// kernel heap.
func NewManager() *Manager {
	m := &Manager{
		nextAddr: arch.ARM1136.KernelHeapBase,
		memEnd:   arch.ARM1136.KernelHeapBase + 128*1024*1024,
	}
	m.mdbHead.MDBDepth = -1
	return m
}

// Objects returns the live objects (shared slice; callers must not
// mutate).
func (m *Manager) Objects() []Object { return m.objects }

// MDBHead returns the derivation-tree sentinel, for invariant walks.
func (m *Manager) MDBHead() *Slot { return &m.mdbHead }

func (m *Manager) register(o Object, t ObjType, sizeBits uint8, paddr uint32) {
	h := o.Hdr()
	h.Type = t
	h.SizeBits = sizeBits
	h.PAddr = paddr
	m.nextID++
	h.ID = m.nextID
	h.liveIdx = len(m.objects)
	m.objects = append(m.objects, o)
}

// alignUp rounds v up to a multiple of 2^bits.
func alignUp(v uint32, bits uint8) uint32 {
	mask := uint32(1)<<bits - 1
	return (v + mask) &^ mask
}

// NewRootUntyped carves a fresh untyped region of 2^sizeBits bytes out
// of physical memory, as the kernel does at boot for all non-kernel
// memory.
func (m *Manager) NewRootUntyped(sizeBits uint8) (*Untyped, error) {
	base := alignUp(m.nextAddr, sizeBits)
	if base+(1<<sizeBits) > m.memEnd {
		return nil, fmt.Errorf("kobj: out of physical memory for %d-bit untyped", sizeBits)
	}
	u := &Untyped{}
	m.register(u, TypeUntyped, sizeBits, base)
	m.nextAddr = base + (1 << sizeBits)
	return u, nil
}

// ObjectSizeBits returns log2 of the size of an object of the given
// type; param carries the radix for CNodes and the size in bits for
// frames and untypeds. The kernel's creation path uses it to compute
// how much memory must be cleared before book-keeping runs (§3.5).
func ObjectSizeBits(t ObjType, param uint8) (uint8, error) {
	return objSizeBits(t, param)
}

// objSizeBits returns the size of an object in bits; for variable-size
// objects (CNode, Frame, Untyped) param carries the radix/size.
func objSizeBits(t ObjType, param uint8) (uint8, error) {
	switch t {
	case TypeTCB:
		return TCBSizeBits, nil
	case TypeEndpoint:
		return 4, nil // 16 B
	case TypeNotification:
		return 4, nil // 16 B
	case TypeCNode:
		if param == 0 || param > 28 {
			return 0, fmt.Errorf("kobj: invalid CNode radix %d", param)
		}
		return param + 4, nil // 16-byte slots
	case TypeFrame:
		// 4 KiB small pages up to 16 MiB supersections (§3.5).
		if param < 12 || param > 24 {
			return 0, fmt.Errorf("kobj: invalid frame size 2^%d", param)
		}
		return param, nil
	case TypePageTable:
		return 10, nil // 1 KiB on ARMv6
	case TypePageDirectory:
		return 14, nil // 16 KiB on ARMv6
	case TypeASIDPool:
		return 12, nil
	case TypeUntyped:
		if param < 4 {
			return 0, fmt.Errorf("kobj: invalid untyped size 2^%d", param)
		}
		return param, nil
	default:
		return 0, fmt.Errorf("kobj: cannot retype to %v", t)
	}
}

// Retype creates count objects of the given type from an untyped
// region, advancing its watermark. param is the radix for CNodes and
// the size in bits for frames and untypeds. Object memory is NOT
// cleared here — clearing is the long-running, preemptible part of
// creation and belongs to the kernel's creation path (§3.5).
//
// Retype enforces the allocation invariants seL4's userspace-allocation
// model checks in-kernel (Elkaduwe 2007): objects are aligned to their
// size, lie inside the untyped, and cannot overlap previously retyped
// children.
func (m *Manager) Retype(u *Untyped, t ObjType, param uint8, count int) ([]Object, error) {
	if count <= 0 {
		return nil, fmt.Errorf("kobj: retype count %d", count)
	}
	sizeBits, err := objSizeBits(t, param)
	if err != nil {
		return nil, err
	}
	out := make([]Object, 0, count)
	for i := 0; i < count; i++ {
		base := alignUp(u.PAddr+u.Watermark, sizeBits)
		end := base + (1 << sizeBits)
		if end > u.End() || end < base {
			return nil, fmt.Errorf("kobj: untyped %d exhausted retyping %v %d/%d", u.ID, t, i, count)
		}
		var o Object
		switch t {
		case TypeTCB:
			o = &TCB{}
		case TypeEndpoint:
			o = &Endpoint{}
		case TypeNotification:
			o = &Notification{}
		case TypeCNode:
			cn := &CNode{RadixBits: param}
			cn.initSlots()
			o = cn
		case TypeFrame:
			o = &Frame{}
		case TypePageTable:
			o = &PageTable{LowestMapped: PTEntries}
		case TypePageDirectory:
			o = &PageDirectory{LowestMapped: PDEntries}
		case TypeASIDPool:
			o = &ASIDPool{}
		case TypeUntyped:
			o = &Untyped{}
		}
		m.register(o, t, sizeBits, base)
		h := o.Hdr()
		h.parent = u
		h.childIdx = len(u.Children)
		u.Children = append(u.Children, o)
		u.Watermark = end - u.PAddr
		out = append(out, o)
	}
	return out, nil
}

// DecodeChain retypes from u the Fig. 7 worst-case capability space: a
// chain of levels radix-1 CNodes, each holding the next level's cap in
// slot 1, so that decoding consumes one address bit per level before
// reaching leaf. The outermost CNode's guard absorbs the remaining
// address bits, so the address is exactly 32 bits. CNodes are retyped
// leaf-first and named name(level), level 1 being the outermost. It
// returns the chain's root cap and the address that decodes through
// every level to leaf.
func (m *Manager) DecodeChain(u *Untyped, leaf Cap, levels int, name func(level int) string) (Cap, uint32, error) {
	next := leaf
	for l := 0; l < levels; l++ {
		cnObjs, err := m.Retype(u, TypeCNode, 1, 1)
		if err != nil {
			return Cap{}, 0, err
		}
		cn := cnObjs[0].(*CNode)
		cn.Name = name(levels - l)
		if l == levels-1 {
			cn.GuardBits = uint8(CapAddrBits - levels)
		}
		cn.Slot(1).Cap = next
		next = Cap{Type: CapCNode, Obj: cn, Rights: RightsAll}
	}
	// Address: guard zeros, then bit 1 at every level.
	var addr uint32
	for l := 0; l < levels; l++ {
		addr = addr<<1 | 1
	}
	return next, addr, nil
}

// Destroy marks an object dead and removes it from the live set and
// its parent untyped's children, in constant time: the object's header
// records both positions, and the last element of each list moves into
// the hole. Destroying an object that is no longer live only marks it.
// The caller is responsible for having already removed all references
// (caps, queue membership, mappings) — the invariant checker verifies
// that.
func (m *Manager) Destroy(o Object) {
	h := o.Hdr()
	h.Destroyed = true
	i := h.liveIdx
	if i < 0 || i >= len(m.objects) || m.objects[i] != o {
		return
	}
	m.objects = swapRemove(m.objects, i, func(x Object) { x.Hdr().liveIdx = i })
	h.liveIdx = -1
	if u := h.parent; u != nil {
		j := h.childIdx
		u.Children = swapRemove(u.Children, j, func(x Object) { x.Hdr().childIdx = j })
		h.parent = nil
	}
}

// swapRemove removes s[i] by moving the last element into its place,
// telling moved about the element's new index.
func swapRemove(s []Object, i int, moved func(Object)) []Object {
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		moved(s[i])
	}
	s[last] = nil
	return s[:last]
}

// --- Capability derivation tree (MDB) ---

// mdbInsert places child's slot into the derivation tree as a child of
// parent (or as a root when parent is nil), using seL4's list-plus-
// depth representation: the child is linked immediately after its
// parent with depth+1.
func (m *Manager) mdbInsert(parent, child *Slot) {
	var after *Slot
	if parent == nil {
		after = &m.mdbHead
		child.MDBDepth = 0
	} else {
		after = parent
		child.MDBDepth = parent.MDBDepth + 1
	}
	child.MDBNext = after.MDBNext
	child.MDBPrev = after
	if after.MDBNext != nil {
		after.MDBNext.MDBPrev = child
	}
	after.MDBNext = child
}

// mdbRemove unlinks a slot from the derivation tree.
func (m *Manager) mdbRemove(s *Slot) {
	if s.MDBPrev != nil {
		s.MDBPrev.MDBNext = s.MDBNext
	}
	if s.MDBNext != nil {
		s.MDBNext.MDBPrev = s.MDBPrev
	}
	s.MDBPrev, s.MDBNext = nil, nil
	s.MDBDepth = 0
}

// Children returns parent's direct and transitive descendants in the
// derivation tree: the contiguous run after parent with greater depth.
func (m *Manager) Children(parent *Slot) []*Slot {
	var out []*Slot
	for s := parent.MDBNext; s != nil && s.MDBDepth > parent.MDBDepth; s = s.MDBNext {
		out = append(out, s)
	}
	return out
}

// IsFinal reports whether slot holds the last capability to its
// object: no MDB neighbour references the same object. Deletion of a
// final cap must destroy the object.
func (m *Manager) IsFinal(slot *Slot) bool {
	if slot.IsEmpty() {
		return false
	}
	obj := slot.Cap.Obj
	for s := m.mdbHead.MDBNext; s != nil; s = s.MDBNext {
		if s != slot && !s.IsEmpty() && s.Cap.Obj == obj {
			return false
		}
	}
	return true
}

// SetCap installs a capability into a slot and links it into the
// derivation tree under parent (nil for a root cap).
func (m *Manager) SetCap(slot *Slot, c Cap, parent *Slot) {
	if !slot.IsEmpty() {
		panic(fmt.Sprintf("kobj: SetCap over live cap in %s[%d]", slot.CNode.Name, slot.Index))
	}
	slot.Cap = c
	m.mdbInsert(parent, slot)
}

// ClearSlot removes the capability from a slot and unlinks it.
func (m *Manager) ClearSlot(slot *Slot) {
	slot.Cap = Cap{}
	m.mdbRemove(slot)
}

// MoveSlot moves the capability in src to the empty slot dst, which
// takes src's place in the derivation tree, and empties src.
func (m *Manager) MoveSlot(dst, src *Slot) {
	if !dst.IsEmpty() {
		panic(fmt.Sprintf("kobj: MoveSlot over live cap in %s[%d]", dst.CNode.Name, dst.Index))
	}
	dst.Cap = src.Cap
	dst.MDBPrev, dst.MDBNext, dst.MDBDepth = src.MDBPrev, src.MDBNext, src.MDBDepth
	if dst.MDBPrev != nil {
		dst.MDBPrev.MDBNext = dst
	}
	if dst.MDBNext != nil {
		dst.MDBNext.MDBPrev = dst
	}
	src.Cap = Cap{}
	src.MDBPrev, src.MDBNext, src.MDBDepth = nil, nil, 0
}

// RevokeStep deletes one child of parent from the derivation tree and
// reports whether any children remain — the unit of work between
// preemption points in revocation, matching the incremental-consistency
// pattern (§2.1).
func (m *Manager) RevokeStep(parent *Slot) (remaining bool) {
	s := parent.MDBNext
	if s == nil || s.MDBDepth <= parent.MDBDepth {
		return false
	}
	m.ClearSlot(s)
	next := parent.MDBNext
	return next != nil && next.MDBDepth > parent.MDBDepth
}
