package kobj

import (
	"math/rand"
	"testing"
)

// TestDestroyRandomMatchesReference runs random retype/destroy
// sequences over a root untyped and the untypeds retyped from it. After
// every step the live set must equal a reference set, every live
// untyped's Children must equal its live children, and destroying an
// already destroyed object must change nothing.
func TestDestroyRandomMatchesReference(t *testing.T) {
	types := []struct {
		t     ObjType
		param uint8
	}{
		{TypeEndpoint, 0}, {TypeNotification, 0}, {TypeTCB, 0},
		{TypeFrame, 12}, {TypeCNode, 2}, {TypeUntyped, 14},
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, root := newTestManager(t)
		live := map[Object]bool{root: true}
		children := map[*Untyped]map[Object]bool{root: {}}
		untypeds := []*Untyped{root}
		var dead []Object

		check := func(step int) {
			t.Helper()
			objs := m.Objects()
			if len(objs) != len(live) {
				t.Fatalf("seed %d step %d: %d live objects, want %d", seed, step, len(objs), len(live))
			}
			for _, o := range objs {
				if !live[o] {
					t.Fatalf("seed %d step %d: object %d live but destroyed", seed, step, o.Hdr().ID)
				}
			}
			for u, want := range children {
				if !live[u] {
					continue
				}
				if len(u.Children) != len(want) {
					t.Fatalf("seed %d step %d: untyped %d has %d children, want %d",
						seed, step, u.ID, len(u.Children), len(want))
				}
				for _, c := range u.Children {
					if !want[c] {
						t.Fatalf("seed %d step %d: untyped %d lists object %d", seed, step, u.ID, c.Hdr().ID)
					}
				}
			}
		}

		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				u := untypeds[rng.Intn(len(untypeds))]
				if !live[u] {
					continue
				}
				ty := types[rng.Intn(len(types))]
				// One object per call: a multi-object retype that
				// exhausts the untyped keeps the objects made so far.
				objs, err := m.Retype(u, ty.t, ty.param, 1)
				if err != nil {
					continue // untyped exhausted
				}
				for _, o := range objs {
					live[o] = true
					children[u][o] = true
					if nu, ok := o.(*Untyped); ok {
						untypeds = append(untypeds, nu)
						children[nu] = map[Object]bool{}
					}
				}
			case op < 9:
				objs := m.Objects()
				o := objs[rng.Intn(len(objs))]
				if o == Object(root) {
					continue
				}
				m.Destroy(o)
				delete(live, o)
				for _, c := range children {
					delete(c, o)
				}
				dead = append(dead, o)
			default:
				if len(dead) == 0 {
					continue
				}
				m.Destroy(dead[rng.Intn(len(dead))])
			}
			check(step)
		}
		for _, o := range dead {
			if !o.Hdr().Destroyed {
				t.Fatalf("seed %d: destroyed object %d not marked", seed, o.Hdr().ID)
			}
		}
	}
}
