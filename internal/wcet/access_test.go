package wcet

import (
	"fmt"
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/machine"
)

// TestStraddlingPinnedFootprintSound: a striding reference whose first
// element sits at the end of a pinned line and whose second element
// starts the next, unpinned, line touches two lines. Only the first is
// pinned, so the reference is unclassifiable, not always-hit, and its
// footprint clobbers both lines' sets. The bound must dominate every
// polluted replay. A footprint of [Base, Base+Stride·Count] probed in
// line steps from the unaligned Base misses the second line: that
// analysis calls the reference always-hit and bounds 940 cycles
// against 984 observed.
func TestStraddlingPinnedFootprintSound(t *testing.T) {
	img := kimage.New()
	data := img.Data("d", 8192)
	img.PinData(data)
	b := img.NewFunc("entry")
	b.Loop(64, func(b *kimage.FuncBuilder) {
		b.LoadStride(data+28, 4, 2) // data+28 and data+32: two lines
	})
	b.Ret()
	img.Entries = []string{"entry"}
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	hw := arch.Config{PinnedL1Ways: 1}
	r, err := New(img, hw).Analyze("entry")
	if err != nil {
		t.Fatal(err)
	}
	if r.Classified.DataUnknown == 0 {
		t.Errorf("straddling reference classified %+v, want unclassifiable", r.Classified)
	}
	for seed := uint32(1); seed <= 8; seed++ {
		m := machine.New(hw)
		m.LoadImage(img)
		m.Pollute(seed)
		if obs := m.Run(r.Trace); obs > r.Cycles {
			t.Fatalf("seed %d: observed %d > bound %d", seed, obs, r.Cycles)
		}
	}
}

// TestStridedFootprintClobbersItsSets: an unclassifiable striding
// reference destroys the guarantee of exactly the sets its footprint's
// lines map to. A fixed load of data, repeated after the reference,
// misses when the footprint reaches data's set and hits otherwise.
func TestStridedFootprintClobbersItsSets(t *testing.T) {
	way := uint32(arch.ARM1136.L1D.WaySizeBytes())
	for _, tc := range []struct {
		name                 string
		off, stride, count   uint32
		wantHits, wantMisses int
	}{
		// 128 lines: every set of the one-way model.
		{"wraps the cache", 32, 32, 128, 0, 2},
		// Elements at way−8, way−4 and way: the last one's line is
		// one way from data's, so it shares data's set.
		{"last element in the set", way - 8, 4, 3, 0, 2},
		// Elements at way−12, way−8 and way−4: one line, the set
		// before data's.
		{"ends before the set", way - 12, 4, 3, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := kimage.New()
			data := img.Data("d", 2*way)
			b := img.NewFunc("entry")
			b.Load(data)
			b.LoadStride(data+tc.off, tc.stride, tc.count)
			b.Load(data)
			b.Ret()
			img.Entries = []string{"entry"}
			if err := img.Link(); err != nil {
				t.Fatal(err)
			}
			r, err := New(img, arch.Config{}).Analyze("entry")
			if err != nil {
				t.Fatal(err)
			}
			c := r.Classified
			if c.DataHit != tc.wantHits || c.DataMiss != tc.wantMisses || c.DataUnknown != 1 {
				t.Errorf("classified %+v, want %d hit / %d miss / 1 unknown", c, tc.wantHits, tc.wantMisses)
			}
		})
	}
}

// TestWrappingStrideRefused: a striding reference whose last element
// lies past 0xFFFF_FFFF wraps the address space. Its footprint, the
// lines from Base to the wrapped last byte, is then one pinned line,
// and the analysis called a walk over 16 unpinned lines always-hit:
// 3,436 cycles bounded against 16,934 observed (Stride 0x1000_0000,
// Count 17), and 3,436 against 17,894 (Stride 0x0800_0000, Count 33).
// Link refuses such a reference, naming its function and block; were it
// accepted, the bound must still dominate every polluted replay.
func TestWrappingStrideRefused(t *testing.T) {
	for _, tc := range []struct{ stride, count uint32 }{
		{0x1000_0000, 17},
		{0x0800_0000, 33},
	} {
		t.Run(fmt.Sprintf("%#x-x%d", tc.stride, tc.count), func(t *testing.T) {
			img := kimage.New()
			data := img.Data("d", 8192)
			img.PinData(data)
			b := img.NewFunc("entry")
			b.Loop(256, func(b *kimage.FuncBuilder) { b.LoadStride(data, tc.stride, tc.count) })
			b.Ret()
			img.Entries = []string{"entry"}
			var block string
			for _, bl := range img.Funcs["entry"].Blocks {
				for _, ins := range bl.Instrs {
					if !ins.Data.Fixed() {
						block = bl.Name
					}
				}
			}
			err := img.Link()
			if err != nil {
				if want := "entry/" + block + ":"; !strings.Contains(err.Error(), want) {
					t.Errorf("Link error %q does not name %s", err, want)
				}
				return
			}
			hw := arch.Config{PinnedL1Ways: 1}
			r, err := New(img, hw).Analyze("entry")
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint32(1); seed <= 4; seed++ {
				m := machine.New(hw)
				m.LoadImage(img)
				m.Pollute(seed)
				if obs := m.Run(r.Trace); obs > r.Cycles {
					t.Fatalf("Link accepted the wrapping walk; seed %d: observed %d > bound %d", seed, obs, r.Cycles)
				}
			}
			t.Errorf("Link accepted a striding reference past 0xFFFF_FFFF")
		})
	}
}
