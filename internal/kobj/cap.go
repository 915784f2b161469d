package kobj

import "fmt"

// CapType enumerates capability types.
type CapType uint8

// Capability types.
const (
	CapNull CapType = iota
	CapUntyped
	CapTCB
	CapEndpoint
	CapCNode
	CapFrame
	CapPageTable
	CapPageDirectory
	CapASIDPool
	CapReply
	CapIRQHandler
	CapNotification
)

// String returns the cap type name.
func (t CapType) String() string {
	switch t {
	case CapNull:
		return "null"
	case CapUntyped:
		return "untyped"
	case CapTCB:
		return "tcb"
	case CapEndpoint:
		return "endpoint"
	case CapCNode:
		return "cnode"
	case CapFrame:
		return "frame"
	case CapPageTable:
		return "pagetable"
	case CapPageDirectory:
		return "pagedirectory"
	case CapASIDPool:
		return "asidpool"
	case CapReply:
		return "reply"
	case CapIRQHandler:
		return "irqhandler"
	case CapNotification:
		return "notification"
	default:
		return "unknown"
	}
}

// Rights is a capability rights mask.
type Rights uint8

// Capability rights.
const (
	RightRead Rights = 1 << iota
	RightWrite
	RightGrant
)

// RightsAll grants everything.
const RightsAll = RightRead | RightWrite | RightGrant

// Cap is a capability: a typed reference to a kernel object plus
// object-specific metadata. seL4 packs this into 16 bytes (§3.6): 8
// bytes of derivation-tree pointers (modelled by the Slot that holds
// the cap) and 8 bytes of object-specific payload. The payload limit is
// why frame caps cannot hold full mapping information and need either
// an ASID indirection or shadow page tables.
type Cap struct {
	Type   CapType
	Obj    Object
	Rights Rights
	// Badge is the unforgeable token of a badged endpoint cap
	// (§3.4); zero means unbadged.
	Badge uint32

	// Guard and GuardBits configure guarded decoding of CNode caps
	// (the capability-space graph of Fig. 7).
	Guard     uint32
	GuardBits uint8

	// MappedASID and MappedVaddr are the frame-cap mapping fields
	// of the ASID design (§3.6): the indirection that keeps stale
	// frame caps harmless.
	MappedASID  uint32
	MappedVaddr uint32
}

// IsNull reports whether the cap is empty.
func (c Cap) IsNull() bool { return c.Type == CapNull }

// Endpoint returns the referenced endpoint.
func (c Cap) Endpoint() *Endpoint { return c.Obj.(*Endpoint) }

// CNode returns the referenced CNode.
func (c Cap) CNode() *CNode { return c.Obj.(*CNode) }

// Frame returns the referenced frame.
func (c Cap) Frame() *Frame { return c.Obj.(*Frame) }

// Notification returns the referenced notification object.
func (c Cap) Notification() *Notification { return c.Obj.(*Notification) }

func (c Cap) String() string {
	if c.IsNull() {
		return "<null cap>"
	}
	s := fmt.Sprintf("<%s cap obj=%d", c.Type, c.Obj.Hdr().ID)
	if c.Badge != 0 {
		s += fmt.Sprintf(" badge=%d", c.Badge)
	}
	return s + ">"
}

// Slot is a CNode slot: a capability plus its position in the
// capability derivation tree (CDT). The CDT is stored exactly as
// seL4's mapping database: a doubly-linked list in preorder with
// explicit depths, so parent/child relations are recoverable in O(1)
// from neighbours.
type Slot struct {
	Cap Cap
	// CNode and Index locate the slot.
	CNode *CNode
	Index int
	// MDB links and depth.
	MDBPrev, MDBNext *Slot
	MDBDepth         int
}

// IsEmpty reports whether the slot holds no cap. A nil slot, one in a
// CNode leaf never allocated, is empty.
func (s *Slot) IsEmpty() bool { return s == nil || s.Cap.IsNull() }

// cnodeLeafBits sets the host storage of CNode slots: leaves of
// 1<<cnodeLeafBits slots.
const (
	cnodeLeafBits = 6
	cnodeLeafSize = 1 << cnodeLeafBits
)

// CNode is a capability storage node of 2^RadixBits slots.
//
// On the host the slots live in leaves of cnodeLeafSize, each
// allocated on its first access, so a radix-12 root CNode holding a
// few dozen caps costs one leaf rather than a dense 4,096-slot array.
// Leaves are never freed or moved, so Slot pointers stay stable. A
// CNode of at most one leaf gets its slots at retype, in one
// allocation. The simulated object and every simulated cost are
// unchanged.
type CNode struct {
	Header
	Name string
	// GuardValue/GuardBits: address bits that must match before
	// indexing (guarded page-table style decode).
	GuardValue uint32
	GuardBits  uint8
	RadixBits  uint8
	// leaves[l] holds slots l<<cnodeLeafBits onwards, or is nil
	// until one of them is first accessed.
	leaves [][]Slot
	// leaf0 is the leaf table of a CNode of at most one leaf, so
	// that its table needs no allocation of its own.
	leaf0 [1][]Slot
}

// NumSlots returns the number of slots.
func (cn *CNode) NumSlots() int { return 1 << cn.RadixBits }

// Slot returns the i-th slot, allocating its leaf on first access.
func (cn *CNode) Slot(i int) *Slot {
	leaf := cn.leaves[i>>cnodeLeafBits]
	if leaf == nil {
		leaf = cn.newLeaf(i >> cnodeLeafBits)
	}
	return &leaf[i&(cnodeLeafSize-1)]
}

// peek returns the i-th slot without allocating: nil when its leaf
// was never accessed, so every slot in it is still empty.
func (cn *CNode) peek(i int) *Slot {
	leaf := cn.leaves[i>>cnodeLeafBits]
	if leaf == nil {
		return nil
	}
	return &leaf[i&(cnodeLeafSize-1)]
}

// newLeaf allocates leaf l and wires its slots' back-references.
func (cn *CNode) newLeaf(l int) []Slot {
	leaf := make([]Slot, min(cnodeLeafSize, cn.NumSlots()))
	for j := range leaf {
		leaf[j].CNode = cn
		leaf[j].Index = l<<cnodeLeafBits + j
	}
	cn.leaves[l] = leaf
	return leaf
}

// initSlots sizes the leaf table at retype. A CNode of one leaf gets
// its slots now; a larger one gets them leaf by leaf.
func (cn *CNode) initSlots() {
	if cn.NumSlots() <= cnodeLeafSize {
		cn.leaves = cn.leaf0[:]
		cn.newLeaf(0)
		return
	}
	cn.leaves = make([][]Slot, cn.NumSlots()>>cnodeLeafBits)
}

// DecodeError describes a failed capability-space lookup.
type DecodeError struct {
	Addr   uint32
	Depth  int
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("cap decode of %#x failed at depth %d: %s", e.Addr, e.Depth, e.Reason)
}

// DecodeResult is a successful cap lookup.
type DecodeResult struct {
	Slot *Slot
	// Levels is the number of CNodes traversed — the cache-miss
	// count driver of the §6.1 worst case (up to 32 with 1-bit
	// levels).
	Levels int
}

// CapAddrBits is the width of a capability address. Each decode level
// consumes at least one bit, so it also bounds the decode depth: the
// 32-level worst case of §6.1 (Fig. 7).
const CapAddrBits = 32

// Decode resolves a 32-bit capability address through the capability
// space rooted at root, consuming guard and radix bits per level
// exactly as seL4 does. Decoding may traverse up to CapAddrBits levels
// (Fig. 7).
func Decode(root Cap, addr uint32) (DecodeResult, error) {
	if root.Type != CapCNode {
		return DecodeResult{}, &DecodeError{Addr: addr, Reason: "root is not a CNode cap"}
	}
	remaining := CapAddrBits
	cn := root.CNode()
	levels := 0
	for {
		levels++
		if levels > CapAddrBits {
			return DecodeResult{}, &DecodeError{Addr: addr, Depth: levels, Reason: "depth exceeds address width"}
		}
		g := int(cn.GuardBits)
		r := int(cn.RadixBits)
		if g+r > remaining {
			return DecodeResult{}, &DecodeError{Addr: addr, Depth: levels, Reason: "guard+radix exceed remaining bits"}
		}
		if g > 0 {
			got := (addr >> uint(remaining-g)) & ((1 << uint(g)) - 1)
			if got != cn.GuardValue {
				return DecodeResult{}, &DecodeError{Addr: addr, Depth: levels, Reason: "guard mismatch"}
			}
			remaining -= g
		}
		idx := (addr >> uint(remaining-r)) & ((1 << uint(r)) - 1)
		remaining -= r
		slot := cn.peek(int(idx))
		if remaining == 0 {
			if slot.IsEmpty() {
				return DecodeResult{}, &DecodeError{Addr: addr, Depth: levels, Reason: "empty slot"}
			}
			return DecodeResult{Slot: slot, Levels: levels}, nil
		}
		if slot.IsEmpty() {
			return DecodeResult{}, &DecodeError{Addr: addr, Depth: levels, Reason: "empty slot mid-decode"}
		}
		if slot.Cap.Type != CapCNode {
			return DecodeResult{}, &DecodeError{Addr: addr, Depth: levels, Reason: "non-CNode cap with bits remaining"}
		}
		cn = slot.Cap.CNode()
	}
}
