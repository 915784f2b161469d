package wcet

// Native fuzz target for the analysis-wide soundness theorem: fuzz
// inputs decode into bounded structured programs (the same operation
// vocabulary as randProgram), and for each the computed WCET bound must
// equal the path-free Bound, and dominate both the trace-forced cost of
// the reconstructed worst path and every concrete replay from
// adversarial cache states.
//
// Seeds live in testdata/fuzz/FuzzAnalyzeSoundness; CI runs a short
// -fuzz smoke pass over them on every push.

import (
	"context"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
	"verikern/internal/machine"
)

// progDecoder turns a fuzz input into builder operations: one byte per
// operation, with structured forms (If, Loop) consuming their bodies
// recursively. All shapes are bounded so no input can build a program
// the analysis cannot handle quickly.
type progDecoder struct {
	img  *kimage.Image
	data []byte
	pos  int
	ops  int
}

const (
	maxFuzzOps   = 48
	maxFuzzDepth = 3
)

func (d *progDecoder) next() (byte, bool) {
	if d.pos >= len(d.data) || d.ops >= maxFuzzOps {
		return 0, false
	}
	b := d.data[d.pos]
	d.pos++
	d.ops++
	return b, true
}

// emit writes operations into fb until the input is exhausted, the op
// budget runs out, or a block-terminator byte is hit.
func (d *progDecoder) emit(fb *kimage.FuncBuilder, data uint32, depth int) {
	for {
		b, ok := d.next()
		if !ok {
			return
		}
		switch b % 8 {
		case 0, 1:
			fb.ALU(1 + int(b>>4))
		case 2:
			fb.Load(data + uint32(b>>3)*32)
		case 3:
			fb.Store(data + uint32(b>>3)*32)
		case 4:
			if depth > 0 {
				fb.If(func(fb *kimage.FuncBuilder) {
					d.emit(fb, data, depth-1)
					fb.ALU(1)
				}, func(fb *kimage.FuncBuilder) {
					d.emit(fb, data, depth-1)
					fb.ALU(1)
				})
			} else {
				fb.ALU(2)
			}
		case 5:
			if depth > 0 {
				bound := 1 + int(b>>5)
				fb.Loop(bound, func(fb *kimage.FuncBuilder) {
					d.emit(fb, data, depth-1)
					fb.ALU(1)
				})
			} else {
				fb.ALU(1)
			}
		case 6:
			// Two parameter bytes: p places the walk at word p&7
			// of the stride region's line p>>6, with step
			// strides[p>>3&7]; q pins the region's first eight
			// lines whose bits it sets.
			p, _ := d.next()
			q, _ := d.next()
			for l := uint32(0); l < 8; l++ {
				if q&(1<<l) != 0 {
					d.img.PinData(data + strideRegion + l*32)
				}
			}
			base := data + strideRegion + uint32(p>>6)*32 + uint32(p&7)*4
			fb.LoadStride(base, strides[p>>3&7], 2+uint32(b>>4))
		case 7:
			return // block terminator: pop out of the current body
		}
	}
}

// buildFuzzImage decodes data into a linked single-entry image.
func buildFuzzImage(data []byte) (*kimage.Image, error) {
	img := kimage.New()
	dseg := img.Data("d", 16*1024)
	d := &progDecoder{img: img, data: data}
	f := img.NewFunc("entry")
	d.emit(f, dseg, maxFuzzDepth)
	f.ALU(1) // never empty
	f.Ret()
	img.Entries = []string{"entry"}
	if err := img.Link(); err != nil {
		return nil, err
	}
	return img, nil
}

func FuzzAnalyzeSoundness(f *testing.F) {
	f.Add([]byte("straightline"))
	f.Add([]byte{0, 2, 3, 0})                      // ALU, load, store, ALU
	f.Add([]byte{4, 0, 7, 2, 7, 0})                // branch with two short arms
	f.Add([]byte{5, 2, 0, 7, 0})                   // loop over load+ALU
	f.Add([]byte{5, 4, 2, 7, 3, 7, 7, 6})          // loop containing a branch, then a stride
	f.Add([]byte{6, 6, 0})                         // a striding reference
	f.Add([]byte{0x25, 0x45, 0x12, 0x87, 0x07, 1}) // deeper nesting via high bits
	f.Add([]byte{0xe5, 6, 7, 1, 7})                // a loop over region+28 and +32, only region pinned
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := buildFuzzImage(data)
		if err != nil {
			t.Skip() // decoder built something the linker rejects
		}
		for _, hw := range []arch.Config{{}, {L2Enabled: true}, {PinnedL1Ways: 1}} {
			r, err := New(img, hw).Analyze("entry")
			if err != nil {
				t.Fatalf("hw %+v: analysis failed: %v", hw, err)
			}
			a := New(img, hw)
			a.Cache = NewCache()
			if b, err := a.Bound(context.Background(), "entry"); err != nil || b != r.Cycles {
				t.Fatalf("hw %+v: Bound = %d, %v; want the analysed %d", hw, b, err, r.Cycles)
			}
			tc := TraceCycles(img, hw, r.Trace)
			if tc > r.Cycles {
				t.Fatalf("hw %+v: trace-forced %d exceeds bound %d", hw, tc, r.Cycles)
			}
			for seed := uint32(1); seed <= 3; seed++ {
				m := machine.New(hw)
				if failed := m.LoadImage(img); failed != 0 {
					t.Fatalf("hw %+v: %d lines not pinned", hw, failed)
				}
				m.Pollute(seed * 13)
				got := m.Run(r.Trace)
				if got > r.Cycles {
					t.Fatalf("hw %+v seed %d: observed %d exceeds bound %d (unsound)",
						hw, seed, got, r.Cycles)
				}
			}
		}
	})
}
