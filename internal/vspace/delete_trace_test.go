package vspace

import (
	"slices"
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
)

// scatteredIndices are directory indices spread over several leaves of
// the host's sparse directory, including both ends of the user range
// and neighbours straddling a leaf boundary.
var scatteredIndices = []int{0, 1, 63, 64, 200, 1000, 2047, 3839}

// deleteTrace maps a page table at each scattered directory index, with
// frames at a few entries of some tables, then deletes the space with
// a pending interrupt at every preemption point. It returns the
// (LowestMapped, clock) pair after every preempted call and after the
// final one.
func deleteTrace(t *testing.T) [][2]uint64 {
	t.Helper()
	e, pending := env()
	m := New(ShadowDesign)
	mgr := kobj.NewManager()
	u, err := mgr.NewRootUntyped(24)
	if err != nil {
		t.Fatal(err)
	}
	pdO, _ := mgr.Retype(u, kobj.TypePageDirectory, 0, 1)
	pd := pdO[0].(*kobj.PageDirectory)
	if err := m.InitPD(e, pd); err != nil {
		t.Fatal(err)
	}
	cnO, _ := mgr.Retype(u, kobj.TypeCNode, 10, 1)
	cn := cnO[0].(*kobj.CNode)
	slot := 0
	for n, di := range scatteredIndices {
		ptO, _ := mgr.Retype(u, kobj.TypePageTable, 0, 1)
		pt := ptO[0].(*kobj.PageTable)
		s := cn.Slot(slot)
		slot++
		s.Cap = kobj.Cap{Type: kobj.CapPageTable, Obj: pt}
		if err := m.MapTable(e, pd, di, pt, s); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n%3; j++ {
			fO, err := mgr.Retype(u, kobj.TypeFrame, 12, 1)
			if err != nil {
				t.Fatal(err)
			}
			f := fO[0].(*kobj.Frame)
			fs := cn.Slot(slot)
			slot++
			fs.Cap = kobj.Cap{Type: kobj.CapFrame, Obj: f}
			vaddr := uint32(di)<<20 | uint32(7+100*j)<<12
			if err := m.MapFrame(e, pd, vaddr, f, fs); err != nil {
				t.Fatal(err)
			}
		}
	}
	*pending = true
	var trace [][2]uint64
	for calls := 0; ; calls++ {
		if calls > 100 {
			t.Fatal("DeletePD made no progress")
		}
		out := m.DeletePD(e, pd)
		trace = append(trace, [2]uint64{uint64(pd.LowestMapped), e.Clock.Now()})
		if out == ktime.Done {
			break
		}
		if out != ktime.Preempted {
			t.Fatalf("DeletePD = %v", out)
		}
	}
	return trace
}

// TestShadowDeletePreemptionTrace pins the resumable deletion walk:
// with a preemption taken at every point, the sequence of stored
// lowest-mapped indices and charged cycles must equal the one recorded
// from the dense walk the sparse directory replaced. Jumping over
// unmapped entries may change neither.
func TestShadowDeletePreemptionTrace(t *testing.T) {
	got := deleteTrace(t)
	want := [][2]uint64{
		{1, 12450}, {1, 12494}, {2, 12538}, {63, 12582}, {63, 12626},
		{64, 12670}, {65, 12714}, {200, 12758}, {201, 12802},
		{1000, 12846}, {1000, 12890}, {1001, 12934}, {2048, 12978},
		{3839, 13022}, {3840, 13066}, {4096, 13216},
	}
	if !slices.Equal(got, want) {
		t.Errorf("trace\n got %v\nwant %v", got, want)
	}
}
