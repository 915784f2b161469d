package wcet

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// TestFootprintGrid checks the striding footprint, and the three rules
// that read it, against a brute force over the lines each element's
// word touches. The grid is every Base at a word offset across two
// lines, every Stride from 4 to two lines + 4 in words, and every Count
// from 2 to five lines of words, from an aligned address and again
// ending at 0xFFFF_FFFF, the last byte Link accepts.
//
// The footprint is one range of lines: from the lowest line an element
// touches to the highest, the hull of the touched lines. It equals the
// touched lines exactly when elements are at most a line apart; a
// longer stride leaves lines between elements that the footprint still
// covers. Against the brute force, per reference:
//   - footprint is the hull, and has no line the elements skip unless
//     Stride exceeds a line;
//   - footprintPinned holds exactly when every hull line is pinned,
//     over pin sets that drop the hull's first, last or a middle line,
//     or pin only the touched lines;
//   - dataInTCM holds exactly when every touched line lies in the DTCM
//     window, over windows whose edges fall around the hull's ends;
//   - clobberFootprint clears exactly the sets of the hull's lines, or
//     every set once the hull spans a way.
//
// A footprint of [Base, Base+Stride·(Count−1)+4) probed in line steps
// from the unaligned Base fails it.
func TestFootprintGrid(t *testing.T) {
	be := arch.ARM1136
	line := uint32(be.LineBytes)
	m := newModel(kimage.New(), arch.Config{})
	sets := be.L1D.Sets()

	// full guarantees one line in every set; a clobber then shows in
	// which sets' lines stop hitting.
	full := m.state().d
	guard := func(set int) uint32 { return 0x4000_0000 + uint32(set)*line }
	for set := 0; set < sets; set++ {
		full.Update(guard(set))
	}
	work := m.state().d

	var checked int
	check := func(d kimage.DataRef) {
		checked++
		// The brute force: every line each element's word touches.
		touched := map[uint32]bool{}
		lo, hi := ^uint32(0), uint32(0)
		for i := uint32(0); i < d.Count; i++ {
			a := d.Base + i*d.Stride
			for _, l := range []uint32{lineOf(be, a), lineOf(be, a+3)} {
				touched[l] = true
				lo, hi = min(lo, l), max(hi, l)
			}
		}
		hull := int((hi-lo)/line) + 1
		hullLine := func(k int) uint32 { return lo + uint32(k)*line }

		first, n := footprint(be, d)
		if first != lo || n != uint64(hull) {
			t.Fatalf("%+v: footprint %d lines from %#x, brute force %d from %#x to %#x", d, n, first, hull, lo, hi)
		}
		if d.Stride <= line && len(touched) != hull {
			t.Fatalf("%+v: elements touch %d of the hull's %d lines", d, len(touched), hull)
		}

		// footprintPinned over pin sets around the hull.
		pinSets := []map[uint32]bool{touched}
		for _, drop := range []int{-1, 0, hull / 2, hull - 1} {
			p := map[uint32]bool{}
			for k := 0; k < hull; k++ {
				if k != drop {
					p[hullLine(k)] = true
				}
			}
			pinSets = append(pinSets, p)
		}
		for _, p := range pinSets {
			want := true
			for k := 0; k < hull; k++ {
				want = want && p[hullLine(k)]
			}
			m.pinnedD = p
			if got := m.footprintPinned(d); got != want {
				t.Fatalf("%+v: footprintPinned %t over %d pinned lines, brute force %t", d, got, len(p), want)
			}
		}
		m.pinnedD = nil

		// dataInTCM over windows whose edges fall around the hull's
		// ends. arch's window test wraps when a window ends at the top
		// of the address space, so no window is placed there.
		tcm := uint32(arch.TCMBytes)
		for _, base := range []uint32{lo - 4*line, lo - line, lo, lo + line, hi + line - tcm, hi - tcm} {
			if uint64(base)+uint64(tcm) >= 1<<32 {
				continue
			}
			m.tcm = arch.Config{TCMEnabled: true, DTCMBase: base}
			want := true
			for l := range touched {
				want = want && m.tcm.InDTCM(l) && m.tcm.InDTCM(l+line-1)
			}
			if got := m.dataInTCM(d); got != want {
				t.Fatalf("%+v: dataInTCM %t with the window at %#x, brute force %t", d, got, base, want)
			}
		}
		m.tcm = arch.Config{}
		if m.dataInTCM(d) {
			t.Fatalf("%+v: in the DTCM with the TCM disabled", d)
		}

		// clobberFootprint clears the sets of the hull's lines.
		work.CopyFrom(full)
		m.clobberFootprint(work, d)
		cleared := map[int]bool{}
		for k := 0; k < hull; k++ {
			cleared[work.Set(hullLine(k))] = true
		}
		for set := 0; set < sets; set++ {
			want := hull >= sets || cleared[set]
			if got := !work.Hit(guard(set)); got != want {
				t.Fatalf("%+v: set %d cleared %t, brute force %t", d, set, got, want)
			}
		}
	}

	const region = 0x2000_0000
	for off := uint32(0); off < 2*line; off += 4 {
		for stride := uint32(4); stride <= 2*line+4; stride += 4 {
			for count := uint32(2); count <= 5*line/4; count++ {
				check(kimage.DataRef{Base: region + off, Stride: stride, Count: count})
				check(kimage.DataRef{Base: 0xFFFF_FFFC - off - stride*(count-1), Stride: stride, Count: count})
			}
		}
	}
	t.Logf("%d striding references checked", checked)
}
