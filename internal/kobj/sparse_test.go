package kobj

import (
	"math/rand"
	"testing"
)

// denseNext is the reference for Sparse.Next over a dense array.
func denseNext(d *[PDEntries]*Slot, i int) int {
	for i = max(i, 0); i < PDEntries; i++ {
		if d[i] != nil {
			return i
		}
	}
	return PDEntries
}

// TestSparseMatchesDense drives a Sparse and a dense [PDEntries]
// reference with the same random Set calls, biased towards the bounds
// and leaf edges, and requires Get and Next to agree after every step.
func TestSparseMatchesDense(t *testing.T) {
	edges := []int{0, 1, 62, 63, 64, 65, 127, 128, 4031, 4032, 4094, 4095}
	vals := []*Slot{nil, {Index: 1}, {Index: 2}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Sparse[Slot]
		var d [PDEntries]*Slot
		index := func() int {
			if rng.Intn(2) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return rng.Intn(PDEntries)
		}
		for step := 0; step < 400; step++ {
			i := index()
			v := vals[rng.Intn(len(vals))]
			s.Set(i, v)
			d[i] = v
			if got := s.Get(i); got != v {
				t.Fatalf("seed %d step %d: Get(%d) = %v after Set %v", seed, step, i, got, v)
			}
			j := index() - rng.Intn(2) // reaches -1 from edge 0
			if got, want := s.Next(j), denseNext(&d, j); got != want {
				t.Fatalf("seed %d step %d: Next(%d) = %d, want %d", seed, step, j, got, want)
			}
		}
		for i := 0; i < PDEntries; i++ {
			if s.Get(i) != d[i] {
				t.Fatalf("seed %d: Get(%d) disagrees with the dense array", seed, i)
			}
			if got, want := s.Next(i), denseNext(&d, i); got != want {
				t.Fatalf("seed %d: Next(%d) = %d, want %d", seed, i, got, want)
			}
		}
		if s.Next(PDEntries) != PDEntries {
			t.Fatalf("seed %d: Next(PDEntries) = %d", seed, s.Next(PDEntries))
		}
	}
}

// TestSparseEdges covers the cases the random walk reaches only by
// chance: nil stores, empty leaves and both ends of the index range.
func TestSparseEdges(t *testing.T) {
	var s Sparse[Slot]
	if s.Next(0) != PDEntries || s.Get(0) != nil || s.Get(PDEntries-1) != nil {
		t.Fatal("zero Sparse is not empty")
	}
	s.Set(700, nil)
	if s.leaves[700>>sparseLeafBits] != nil {
		t.Error("storing nil allocated a leaf")
	}

	// Nil into an allocated leaf: the entry reads back nil and Next
	// skips it, although the leaf stays allocated.
	a := &Slot{Index: 5}
	s.Set(5, a)
	s.Set(5, nil)
	if s.Get(5) != nil || s.Next(0) != PDEntries {
		t.Errorf("after nil store: Get(5) = %v, Next(0) = %d", s.Get(5), s.Next(0))
	}

	// Next across empty leaves to the last index, and from the first.
	s.Set(PDEntries-1, a)
	if got := s.Next(0); got != PDEntries-1 {
		t.Errorf("Next(0) = %d, want %d", got, PDEntries-1)
	}
	s.Set(0, a)
	if s.Next(0) != 0 || s.Next(1) != PDEntries-1 || s.Next(PDEntries-1) != PDEntries-1 {
		t.Errorf("Next(0), Next(1), Next(4095) = %d, %d, %d",
			s.Next(0), s.Next(1), s.Next(PDEntries-1))
	}
	if s.Get(0) != a || s.Get(PDEntries-1) != a {
		t.Error("bound entries not stored")
	}
	s.Set(PDEntries-1, nil)
	if s.Next(1) != PDEntries {
		t.Errorf("Next(1) = %d after clearing 4095, want %d", s.Next(1), PDEntries)
	}
}
