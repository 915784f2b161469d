package vspace

import (
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
)

func env() (*ktime.Env, *bool) {
	pending := false
	return &ktime.Env{Clock: &ktime.Clock{}, Preempt: func() bool { return pending }}, &pending
}

// setupSpace builds a PD with one page table holding n mapped frames
// under the given manager, returning the PD and the frame-cap slots.
func setupSpace(t *testing.T, m Manager, e *ktime.Env, n int) (*kobj.PageDirectory, []*kobj.Slot) {
	t.Helper()
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
	ptO, _ := mgr.Retype(u, kobj.TypePageTable, 0, 1)
	pt := ptO[0].(*kobj.PageTable)
	cnO, _ := mgr.Retype(u, kobj.TypeCNode, 10, 1)
	cn := cnO[0].(*kobj.CNode)
	ptSlot := cn.Slot(0)
	ptSlot.Cap = kobj.Cap{Type: kobj.CapPageTable, Obj: pt}
	if err := m.MapTable(e, pd, 16, pt, ptSlot); err != nil {
		t.Fatal(err)
	}
	var slots []*kobj.Slot
	for i := 0; i < n; i++ {
		fO, err := mgr.Retype(u, kobj.TypeFrame, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		f := fO[0].(*kobj.Frame)
		slot := cn.Slot(1 + i)
		slot.Cap = kobj.Cap{Type: kobj.CapFrame, Obj: f}
		vaddr := uint32(16<<20) + uint32(i)<<12
		if err := m.MapFrame(e, pd, vaddr, f, slot); err != nil {
			t.Fatal(err)
		}
		slots = append(slots, slot)
	}
	return pd, slots
}

func TestMapFrameBothDesigns(t *testing.T) {
	for _, d := range []Design{ASIDDesign, ShadowDesign} {
		e, _ := env()
		m := New(d)
		pd, slots := setupSpace(t, m, e, 3)
		for i, s := range slots {
			f := s.Cap.Frame()
			if f.MappedIn != pd {
				t.Errorf("%v: frame %d not recorded mapped", d, i)
			}
			if s.Cap.MappedVaddr != uint32(16<<20)+uint32(i)<<12 {
				t.Errorf("%v: cap %d lost vaddr", d, i)
			}
			if d == ASIDDesign && s.Cap.MappedASID == 0 {
				t.Errorf("asid: cap %d has no ASID", i)
			}
		}
		if !pd.KernelWindowCopied {
			t.Errorf("%v: kernel window not copied at init", d)
		}
	}
}

func TestMapFrameErrors(t *testing.T) {
	for _, d := range []Design{ASIDDesign, ShadowDesign} {
		e, _ := env()
		m := New(d)
		pd, slots := setupSpace(t, m, e, 1)
		f := slots[0].Cap.Frame()
		// Double map.
		if err := m.MapFrame(e, pd, 16<<20, f, slots[0]); err == nil {
			t.Errorf("%v: double map accepted", d)
		}
		// Kernel-window vaddr.
		if err := m.MapFrame(e, pd, 0xF800_0000, f, slots[0]); err == nil {
			t.Errorf("%v: kernel-window map accepted", d)
		}
		// No page table.
		if err := m.MapFrame(e, pd, 200<<20, f, slots[0]); err == nil {
			t.Errorf("%v: map without page table accepted", d)
		}
	}
}

func TestUnmapFrame(t *testing.T) {
	for _, d := range []Design{ASIDDesign, ShadowDesign} {
		e, _ := env()
		m := New(d)
		pd, slots := setupSpace(t, m, e, 2)
		if err := m.UnmapFrame(e, slots[0]); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		f := slots[0].Cap.Frame()
		if f.MappedIn != nil || slots[0].Cap.MappedVaddr != 0 {
			t.Errorf("%v: unmap left state", d)
		}
		// The second mapping is untouched.
		if slots[1].Cap.Frame().MappedIn != pd {
			t.Errorf("%v: unrelated mapping disturbed", d)
		}
		// Unmapping again is a no-op.
		if err := m.UnmapFrame(e, slots[0]); err != nil {
			t.Errorf("%v: re-unmap failed: %v", d, err)
		}
	}
}

func TestASIDDeleteIsConstantAndLazy(t *testing.T) {
	e, _ := env()
	m := New(ASIDDesign).(*asidManager)
	pd, slots := setupSpace(t, m, e, 8)
	before := e.Clock.Now()
	if out := m.DeletePD(e, pd); out != ktime.Done {
		t.Fatal("delete failed")
	}
	cost := e.Clock.Now() - before
	if cost > 1000 {
		t.Errorf("ASID delete cost %d cycles; must be O(1)", cost)
	}
	// Frame caps are stale but harmless: unmap validates through the
	// table and clears them without error.
	for i, s := range slots {
		if s.Cap.MappedASID == 0 {
			t.Fatalf("cap %d should still hold its stale ASID", i)
		}
		if err := m.UnmapFrame(e, s); err != nil {
			t.Errorf("stale unmap %d failed: %v", i, err)
		}
		if s.Cap.MappedASID != 0 {
			t.Errorf("stale cap %d not cleaned", i)
		}
	}
}

func TestASIDReuseAfterDelete(t *testing.T) {
	e, _ := env()
	m := New(ASIDDesign).(*asidManager)
	pd, _ := setupSpace(t, m, e, 1)
	firstASID := pd.ASID
	m.DeletePD(e, pd)
	pd2, _ := setupSpace(t, m, e, 1)
	if pd2.ASID != firstASID {
		t.Errorf("freed ASID %d not reused (got %d)", firstASID, pd2.ASID)
	}
}

func TestASIDAllocationWorstCase(t *testing.T) {
	// Filling a pool makes the free-ASID probe walk all 1024
	// entries — the §3.6 latency problem. Simulate by occupying
	// entries directly.
	e, _ := env()
	m := New(ASIDDesign).(*asidManager)
	pool := m.pools[0]
	for i := 0; i < kobj.ASIDPoolSize-1; i++ {
		pool.Entries[i] = &kobj.PageDirectory{}
	}
	before := e.Clock.Now()
	pd := &kobj.PageDirectory{}
	if err := m.InitPD(e, pd); err != nil {
		t.Fatal(err)
	}
	cost := e.Clock.Now() - before
	if cost < kobj.ASIDPoolSize*CostASIDProbe {
		t.Errorf("worst-case probe cost %d, want >= %d", cost, kobj.ASIDPoolSize*CostASIDProbe)
	}
	if pd.ASID != kobj.ASIDPoolSize {
		t.Errorf("allocated ASID %d, want the last slot %d", pd.ASID, kobj.ASIDPoolSize)
	}
}

func TestShadowDeleteWalksAndClears(t *testing.T) {
	e, _ := env()
	m := New(ShadowDesign)
	pd, slots := setupSpace(t, m, e, 16)
	if out := m.DeletePD(e, pd); out != ktime.Done {
		t.Fatal("delete failed")
	}
	for i, s := range slots {
		if s.Cap.Frame().MappedIn != nil || s.Cap.MappedVaddr != 0 {
			t.Errorf("frame %d not eagerly unmapped (no dangling refs allowed)", i)
		}
	}
	if len(m.VSpaces()) != 0 {
		t.Error("space still live")
	}
}

func TestShadowDeletePreemptsAndResumes(t *testing.T) {
	e, pending := env()
	m := New(ShadowDesign)
	pd, slots := setupSpace(t, m, e, 16)
	*pending = true
	steps := 0
	for {
		out := m.DeletePD(e, pd)
		if out == ktime.Done {
			break
		}
		if out != ktime.Preempted {
			t.Fatalf("unexpected outcome %v", out)
		}
		steps++
		if steps > 10000 {
			t.Fatal("deletion never finished")
		}
	}
	if steps < 16 {
		t.Errorf("deletion preempted %d times, want at least one per entry", steps)
	}
	for i, s := range slots {
		if s.Cap.Frame().MappedIn != nil {
			t.Errorf("frame %d survived resumed deletion", i)
		}
	}
}

func TestShadowDeleteBoundedPerStep(t *testing.T) {
	e, pending := env()
	m := New(ShadowDesign)
	pd, _ := setupSpace(t, m, e, 64)
	*pending = true
	for {
		before := e.Clock.Now()
		out := m.DeletePD(e, pd)
		step := e.Clock.Now() - before
		// Each preempted interval may skip up to a full empty
		// table scan but does constant mapped work.
		if step > 4096*CostPTEntry {
			t.Fatalf("step cost %d too large", step)
		}
		if out == ktime.Done {
			break
		}
	}
}

func TestShadowResumeSkipsUnmappedPrefix(t *testing.T) {
	// LowestMapped persistence: after resume, already-cleared
	// entries are not re-scanned.
	e, pending := env()
	m := New(ShadowDesign)
	pd, _ := setupSpace(t, m, e, 4)
	*pending = true
	m.DeletePD(e, pd) // one step
	pt := pd.Tables.Get(16)
	if pt == nil {
		t.Skip("table already detached") // only if all 4 in one step
	}
	if pt.LowestMapped == 0 {
		t.Error("LowestMapped not advanced after first deletion step")
	}
}

func TestShadowBackPointerConsistencyChecked(t *testing.T) {
	e, _ := env()
	m := New(ShadowDesign)
	pd, slots := setupSpace(t, m, e, 1)
	// Corrupt the shadow: unmap must detect it.
	di, pi := split(16 << 20)
	pd.Tables.Get(di).Shadow[pi] = nil
	if err := m.UnmapFrame(e, slots[0]); err == nil {
		t.Error("unmap accepted corrupted shadow back-pointer")
	}
}
