package wcet_test

import (
	"reflect"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/wcet"
)

// TestClassKeyCoversClassification checks that the class tier's key is
// exactly what classification's phase 1 reads, over both backends'
// kernel images (modern and original, with and without the pin set,
// and with the TCM layout where the backend has one):
//   - a field outside the key (L2Enabled, BranchPredictor,
//     L2LockedKernel, PinnedL1Ways 1 against 2) keeps the key and
//     leaves every entry's vector identical;
//   - a field inside the key (PinnedL1Ways 0 against 1, TCMEnabled,
//     ITCMBase, DTCMBase) changes the key and the vector of some entry.
//
// Phase 1 validates nothing, so every field is varied on both backends;
// only the TCM fields are left out on cva6rt, whose images have no TCM
// layout (arch.Backend.HasTCM is false) to move a window over.
func TestClassKeyCoversClassification(t *testing.T) {
	type variation struct {
		name   string
		change func(*arch.Config)
	}
	outside := []variation{
		{"L2Enabled", func(hw *arch.Config) { hw.L2Enabled = !hw.L2Enabled }},
		{"BranchPredictor", func(hw *arch.Config) { hw.BranchPredictor = !hw.BranchPredictor }},
		{"L2LockedKernel", func(hw *arch.Config) { hw.L2LockedKernel = !hw.L2LockedKernel }},
		{"L2Enabled+L2LockedKernel", func(hw *arch.Config) { hw.L2Enabled, hw.L2LockedKernel = true, true }},
	}
	changed := map[string]bool{}
	for _, id := range []string{"arm1136", "cva6rt"} {
		be, err := arch.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []kbin.Options{
			{Arch: id, Modernised: true},
			{Arch: id},
			{Arch: id, Modernised: true, Pinned: true},
			{Arch: id, Pinned: true},
			{Arch: id, Modernised: true, TCM: true},
			{Arch: id, TCM: true},
		} {
			if o.TCM && !be.HasTCM {
				continue
			}
			img, _, err := kbin.Build(o)
			if err != nil {
				t.Fatal(err)
			}
			base := arch.Config{Arch: id}
			inside := []variation{}
			if o.Pinned {
				base.PinnedL1Ways = 1
				inside = append(inside, variation{"PinnedL1Ways=0", func(hw *arch.Config) { hw.PinnedL1Ways = 0 }})
			}
			if o.TCM {
				base.TCMEnabled = true
				if base.ITCMBase, base.DTCMBase, err = kbin.TCMConfig(img); err != nil {
					t.Fatal(err)
				}
				inside = append(inside,
					variation{"TCMEnabled", func(hw *arch.Config) { hw.TCMEnabled = false }},
					variation{"ITCMBase", func(hw *arch.Config) { hw.ITCMBase += arch.TCMBytes }},
					variation{"DTCMBase", func(hw *arch.Config) { hw.DTCMBase += arch.TCMBytes }})
			}
			same := outside
			if o.Pinned {
				same = append(same[:len(same):len(same)],
					variation{"PinnedL1Ways=2", func(hw *arch.Config) { hw.PinnedL1Ways = 2 }})
			}

			c := wcet.NewCache()
			analyzer := func(hw arch.Config) *wcet.Analyzer {
				a := wcet.New(img, hw)
				a.Cache = c // shares the graphs; Classify bypasses the class tier
				return a
			}
			vector := func(a *wcet.Analyzer, e string) any {
				t.Helper()
				v, err := wcet.Classify(a, e)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			ref := analyzer(base)
			for _, e := range img.Entries {
				want := vector(ref, e)
				for _, v := range same {
					hw := base
					v.change(&hw)
					a := analyzer(hw)
					if wcet.ClassKey(a, e) != wcet.ClassKey(ref, e) {
						t.Errorf("%s %s %s: %s changed the class key", id, o.Canonical(), e, v.name)
					}
					if !reflect.DeepEqual(vector(a, e), want) {
						t.Errorf("%s %s %s: %s, outside the class key, changed the class vector", id, o.Canonical(), e, v.name)
					}
				}
				for _, v := range inside {
					hw := base
					v.change(&hw)
					a := analyzer(hw)
					if wcet.ClassKey(a, e) == wcet.ClassKey(ref, e) {
						t.Errorf("%s %s %s: %s left the class key unchanged", id, o.Canonical(), e, v.name)
					}
					if !reflect.DeepEqual(vector(a, e), want) {
						changed[v.name] = true
					}
				}
			}
		}
	}
	for _, name := range []string{"PinnedL1Ways=0", "TCMEnabled", "ITCMBase", "DTCMBase"} {
		if !changed[name] {
			t.Errorf("%s is in the class key but changed no entry's class vector", name)
		}
	}
}
