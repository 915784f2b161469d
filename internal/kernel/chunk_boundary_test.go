package kernel

import (
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/obs"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// chunkEvents extracts the (chunk bytes, remaining bytes) pairs of the
// KindCreateChunk events a retype emitted.
func chunkEvents(tr *obs.Tracer) [][2]uint64 {
	var out [][2]uint64
	for _, e := range tr.LastEvents(1 << 12) {
		if e.Kind == obs.KindCreateChunk {
			out = append(out, [2]uint64{e.Arg1, e.Arg2})
		}
	}
	return out
}

// TestCreateObjectsChunkBoundaries pins the §3.5 chunking at the 1 KiB
// boundary with 16-byte endpoints: 63 objects clear 1008 B (one short
// chunk), 64 clear exactly 1024 B (one full chunk — no preemption
// point, since the poll only runs with bytes remaining), 65 clear
// 1040 B (a full chunk, a preemption point, then the 16 B tail).
func TestCreateObjectsChunkBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		count  int
		chunks [][2]uint64
	}{
		{"just under (63 × 16 B = 1008 B)", 63, [][2]uint64{{1008, 0}}},
		{"exact (64 × 16 B = 1024 B)", 64, [][2]uint64{{1024, 0}}},
		{"just over (65 × 16 B = 1040 B)", 65, [][2]uint64{{1024, 16}, {16, 0}}},
		{"two exact (128 × 16 B = 2048 B)", 128, [][2]uint64{{1024, 1024}, {1024, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := boot(t, Config{Scheduler: sched.Benno, PreemptionPoints: true})
			tr := obs.NewTracer(1 << 12)
			k.SetTracer(tr)
			adv := mustThread(t, k, "adv", 100)
			addrs, err := k.CreateObjects(adv, kobj.TypeEndpoint, 0, tc.count)
			if err != nil {
				t.Fatal(err)
			}
			if len(addrs) != tc.count {
				t.Fatalf("created %d objects, want %d", len(addrs), tc.count)
			}
			got := chunkEvents(tr)
			if len(got) != len(tc.chunks) {
				t.Fatalf("chunk sequence %v, want %v", got, tc.chunks)
			}
			for i := range got {
				if got[i] != tc.chunks[i] {
					t.Fatalf("chunk %d: got %v, want %v", i, got[i], tc.chunks[i])
				}
			}
		})
	}
}

// TestCreateObjectsPreemptionOnFinalChunk pins where an IRQ raised
// during the clear is serviced. Mid-clear (bytes still remaining) the
// next preemption point takes it: the op is preempted, restarts, and
// the response stays near the distance to that poll. During the final
// chunk there is no poll — the clear's tail, the bookkeeping and the
// cap installs all retire first, so the sample absorbs the whole
// atomic tail and the op never restarts.
func TestCreateObjectsPreemptionOnFinalChunk(t *testing.T) {
	// 4 KiB frame: four 1 KiB chunks with preemption polls after the
	// first three only.
	const entry = CostKernelEntry + CostSyscallDecode + CostDecodeLevel
	const chunkCost = vspace.CostClear1K
	run := func(phase uint64) (latency uint64, preemptions, restarts uint64) {
		k := boot(t, Config{Scheduler: sched.Benno, PreemptionPoints: true})
		adv := mustThread(t, k, "adv", 100)
		k.SetTimer(k.Now() + phase)
		if _, err := k.CreateObjects(adv, kobj.TypeFrame, 12, 1); err != nil {
			t.Fatal(err)
		}
		if n := k.Stats().IRQsServiced; n != 1 {
			t.Fatalf("phase %d: %d IRQ samples, want 1", phase, n)
		}
		return k.MaxLatency(), k.Stats().Preemptions, k.Stats().Restarts
	}

	// An IRQ raised just before the first poll is taken there: one
	// preemption, one restart, response far below a chunk.
	early, earlyPre, earlyRst := run(entry + chunkCost - 100)
	if earlyPre != 1 || earlyRst != 1 {
		t.Errorf("mid-clear IRQ: preemptions=%d restarts=%d, want 1/1", earlyPre, earlyRst)
	}
	if early >= chunkCost/2 {
		t.Errorf("mid-clear IRQ latency %d not well under one chunk (%d)", early, chunkCost)
	}

	// An IRQ raised just after the last poll has no poll left: the
	// final chunk plus the atomic bookkeeping/install tail retire
	// first — no preemption, no restart, and the sample exceeds a
	// full chunk's worth of clearing.
	late, latePre, lateRst := run(entry + 3*chunkCost + 100)
	if latePre != 0 || lateRst != 0 {
		t.Errorf("final-chunk IRQ hit a preemption point (preemptions=%d restarts=%d)", latePre, lateRst)
	}
	if late <= chunkCost {
		t.Errorf("final-chunk IRQ latency %d did not absorb the final chunk + atomic tail (chunk=%d)", late, chunkCost)
	}
	if late <= early {
		t.Errorf("final-chunk latency %d not above mid-clear latency %d", late, early)
	}
}
