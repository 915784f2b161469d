package sched

import (
	"math/rand"
	"testing"

	"verikern/internal/kobj"
)

// naiveHighest is the O(NumPrios) reference for the two-level CLZ
// search: scan priorities from the top for a non-empty queue.
func naiveHighest(rq *RunQueues) int {
	for p := kobj.NumPrios - 1; p >= 0; p-- {
		if rq.Q[p].Head != nil {
			return p
		}
	}
	return -1
}

// checkBitmapConsistency verifies the two-level bitmap is exactly the
// occupancy of the queues: a Level2 bit per non-empty priority, a Top
// bit per non-zero Level2 word.
func checkBitmapConsistency(t *testing.T, rq *RunQueues) {
	t.Helper()
	for p := 0; p < kobj.NumPrios; p++ {
		bit := rq.Level2[p>>5]&(1<<(p&31)) != 0
		if got := rq.Q[p].Head != nil; bit != got {
			t.Fatalf("prio %d: Level2 bit %v, queue non-empty %v", p, bit, got)
		}
	}
	for b := 0; b < 8; b++ {
		bit := rq.Top&(1<<b) != 0
		if got := rq.Level2[b] != 0; bit != got {
			t.Fatalf("bucket %d: Top bit %v, Level2 non-zero %v", b, bit, got)
		}
	}
}

// TestBitmapMatchesNaiveReference drives randomized enqueue/dequeue
// sequences against the bitmap-maintained run queues and checks, after
// every operation, that the two-load/two-CLZ search agrees with the
// naive priority scan and that the bitmap mirrors queue occupancy —
// the §3.2 replacement must be behaviourally invisible.
func TestBitmapMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rq := &RunQueues{useBitmap: true}
		// A pool biased toward few distinct priorities, so queues
		// routinely hold several threads and empty out again.
		prios := make([]uint8, 12)
		for i := range prios {
			prios[i] = uint8(rng.Intn(kobj.NumPrios))
		}
		var queued []*kobj.TCB
		for op := 0; op < 400; op++ {
			if len(queued) == 0 || rng.Intn(2) == 0 {
				tc := &kobj.TCB{Prio: prios[rng.Intn(len(prios))], State: kobj.ThreadRunnable}
				rq.enqueue(tc)
				queued = append(queued, tc)
			} else {
				i := rng.Intn(len(queued))
				rq.dequeue(queued[i])
				queued = append(queued[:i], queued[i+1:]...)
			}
			if got, want := rq.highestBitmap(), naiveHighest(rq); got != want {
				t.Fatalf("trial %d op %d: highestBitmap()=%d, naive scan=%d", trial, op, got, want)
			}
			checkBitmapConsistency(t, rq)
		}
	}
}

// TestBitmapSchedulerPicksAsBenno: the bitmap scheduler must choose
// the same threads in the same order as the plain Benno scan under an
// identical randomized operation sequence — only the search cost
// changes.
func TestBitmapSchedulerPicksAsBenno(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		plain, fast := New(Benno), New(BennoBitmap)
		// Mirrored thread pools: index i on one side corresponds to
		// index i on the other.
		var pt, ft []*kobj.TCB
		for i := 0; i < 10; i++ {
			p := uint8(rng.Intn(kobj.NumPrios))
			pt = append(pt, &kobj.TCB{Prio: p, State: kobj.ThreadRunnable})
			ft = append(ft, &kobj.TCB{Prio: p, State: kobj.ThreadRunnable})
		}
		for op := 0; op < 300; op++ {
			i := rng.Intn(len(pt))
			switch rng.Intn(4) {
			case 0:
				pt[i].State, ft[i].State = kobj.ThreadRunnable, kobj.ThreadRunnable
				plain.Enqueue(pt[i])
				fast.Enqueue(ft[i])
			case 1:
				pt[i].State, ft[i].State = kobj.ThreadBlockedOnSend, kobj.ThreadBlockedOnSend
				plain.OnBlock(pt[i])
				fast.OnBlock(ft[i])
			case 2:
				a, _ := plain.ChooseThread()
				b, _ := fast.ChooseThread()
				if (a == nil) != (b == nil) {
					t.Fatalf("trial %d op %d: benno chose %v, bitmap chose %v", trial, op, a, b)
				}
				if a != nil {
					ai, bi := indexOf(pt, a), indexOf(ft, b)
					if ai != bi {
						t.Fatalf("trial %d op %d: benno chose thread %d (prio %d), bitmap thread %d (prio %d)",
							trial, op, ai, a.Prio, bi, b.Prio)
					}
				}
			case 3:
				plain.AtPreemption(pt[i])
				fast.AtPreemption(ft[i])
			}
		}
	}
}

func indexOf(pool []*kobj.TCB, t *kobj.TCB) int {
	for i, p := range pool {
		if p == t {
			return i
		}
	}
	return -1
}
