package kobj

const (
	sparseLeafBits = 6
	sparseLeafSize = 1 << sparseLeafBits
	sparseLeaves   = PDEntries / sparseLeafSize
)

// Sparse is a page directory's per-entry pointer array, indexed
// 0..PDEntries-1, stored as 64 leaves of 64 entries. A leaf is
// allocated on its first non-nil store, so a directory with a handful
// of mappings costs a few hundred bytes on the host instead of a dense
// 32 KiB array. The representation is host-side only: the simulated
// directory is still 16 KiB and every simulated cost is unchanged.
//
// The zero value is an empty array. Indices outside 0..PDEntries-1
// panic, as they would on the dense array.
type Sparse[T any] struct {
	leaves [sparseLeaves]*[sparseLeafSize]*T
}

// Get returns entry i (nil when unset).
func (s *Sparse[T]) Get(i int) *T {
	leaf := s.leaves[i>>sparseLeafBits]
	if leaf == nil {
		return nil
	}
	return leaf[i&(sparseLeafSize-1)]
}

// Set stores v at entry i. Storing nil never allocates a leaf.
func (s *Sparse[T]) Set(i int, v *T) {
	leaf := s.leaves[i>>sparseLeafBits]
	if leaf == nil {
		if v == nil {
			return
		}
		leaf = new([sparseLeafSize]*T)
		s.leaves[i>>sparseLeafBits] = leaf
	}
	leaf[i&(sparseLeafSize-1)] = v
}

// Next returns the lowest index >= i holding a non-nil entry, or
// PDEntries when there is none. Leaves never allocated are skipped
// whole.
func (s *Sparse[T]) Next(i int) int {
	for i = max(i, 0); i < PDEntries; {
		leaf := s.leaves[i>>sparseLeafBits]
		if leaf == nil {
			i = (i | (sparseLeafSize - 1)) + 1
			continue
		}
		if leaf[i&(sparseLeafSize-1)] != nil {
			return i
		}
		i++
	}
	return PDEntries
}
