package verikern

// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks and ablations for the individual
// design changes of §3. Custom metrics report the simulated-cycle
// results alongside Go's wall-clock numbers: `cycles/op` is the
// simulated cost of the operation under benchmark, `us(paper-scale)`
// its value on the 532 MHz clock.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"verikern/internal/ilp"
	"verikern/internal/kernel"
	"verikern/internal/kobj"
	"verikern/internal/machine"
	"verikern/internal/obs"
	"verikern/internal/sched"
	"verikern/internal/wcet"
)

// --- Experiment benches: one per table/figure ---

// BenchmarkTable1CachePinning regenerates Table 1 (§4).
func BenchmarkTable1CachePinning(b *testing.B) {
	var rows []Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.GainPercent, "gain%:"+string(r.Entry))
	}
}

// BenchmarkTable2WCET regenerates Table 2 (§6).
func BenchmarkTable2WCET(b *testing.B) {
	var rows []Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Table2(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Entry == Syscall {
			b.ReportMetric(r.BeforeL2Off/r.L2Off.ComputedMicros, "syscall-improvement-x")
			b.ReportMetric(r.L2Off.Ratio, "syscall-ratio-l2off")
			b.ReportMetric(r.L2On.Ratio, "syscall-ratio-l2on")
		}
	}
}

// BenchmarkFig8Overestimation regenerates Figure 8 (§6.2).
func BenchmarkFig8Overestimation(b *testing.B) {
	var bars []Fig8Bar
	var err error
	for i := 0; i < b.N; i++ {
		bars, err = Fig8(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, bar := range bars {
		if bar.Entry == Syscall {
			key := "overest%l2off"
			if bar.L2Enabled {
				key = "overest%l2on"
			}
			b.ReportMetric(bar.OverestimationPercent, key)
		}
	}
}

// BenchmarkFig9Features regenerates Figure 9 (§6.4).
func BenchmarkFig9Features(b *testing.B) {
	var bars []Fig9Bar
	var err error
	for i := 0; i < b.N; i++ {
		bars, err = Fig9(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, bar := range bars {
		if bar.Entry == PageFault && bar.Config == "L2 enabled" {
			b.ReportMetric(bar.Normalised, "pf-l2on-normalised")
		}
	}
}

// BenchmarkHeadlineLatency computes the §6 headline bound.
func BenchmarkHeadlineLatency(b *testing.B) {
	var h Headline
	var err error
	for i := 0; i < b.N; i++ {
		h, err = ComputeHeadline(context.Background(), false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(h.TotalCycles), "cycles(paper:189117)")
	b.ReportMetric(h.TotalMicros, "us(paper:356)")
}

// BenchmarkAnalysisTime runs the §6.3 dominant analysis (the system
// call handler) once per iteration.
func BenchmarkAnalysisTime(b *testing.B) {
	im, err := BuildImage(Modern, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.Analyze(Hardware{}, Syscall); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Functional-kernel microbenches (§3, §6.1) ---

// BenchmarkFastpathIPC measures the fastpath send round (§6.1: the
// fastpath body is 200–250 cycles on the ARM1136).
func BenchmarkFastpathIPC(b *testing.B) {
	sys, err := Boot(ModernKernel())
	if err != nil {
		b.Fatal(err)
	}
	server, _ := sys.CreateThread("server", 200)
	sys.StartThread(server)
	client, _ := sys.CreateThread("client", 100)
	sys.StartThread(client)
	eps, err := sys.CreateObjects(client, TypeEndpoint, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Recv(server, eps[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Send(client, eps[0], 2, nil, false); err != nil {
			b.Fatal(err)
		}
		// Re-arm: the server waits again (timed; itself a fast
		// kernel operation).
		server.State = kobj.ThreadRunning
		if err := sys.Recv(server, eps[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sys.Stats().FastpathIPCs == 0 {
		b.Fatal("fastpath never taken")
	}
	cycles, _ := FastpathCycles()
	b.ReportMetric(float64(cycles), "simcycles/op")
}

// BenchmarkSlowpathIPC measures a full-featured slowpath call/reply.
func BenchmarkSlowpathIPC(b *testing.B) {
	sys, err := Boot(ModernKernel())
	if err != nil {
		b.Fatal(err)
	}
	server, _ := sys.CreateThread("server", 200)
	sys.StartThread(server)
	client, _ := sys.CreateThread("client", 100)
	sys.StartThread(client)
	eps, _ := sys.CreateObjects(client, TypeEndpoint, 0, 1)
	sys.Recv(server, eps[0])
	before := sys.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Call(client, eps[0], 120, nil); err != nil {
			b.Fatal(err)
		}
		if err := sys.ReplyRecv(server, eps[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(sys.Now()-before)/float64(b.N), "simcycles/op")
	}
}

// BenchmarkAdversarialDecode measures sends through the Fig. 7
// worst-case capability space.
func BenchmarkAdversarialDecode(b *testing.B) {
	for _, levels := range []int{1, 32} {
		name := "shallow"
		if levels == 32 {
			name = "deep32"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := Boot(ModernKernel())
			if err != nil {
				b.Fatal(err)
			}
			adv, _ := sys.CreateThread("adv", 100)
			sys.StartThread(adv)
			addr, err := sys.BuildAdversarialCSpace(adv, levels)
			if err != nil {
				b.Fatal(err)
			}
			before := sys.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Send(adv, addr, 1, nil, false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(sys.Now()-before)/float64(b.N), "simcycles/op")
			}
		})
	}
}

// BenchmarkLazyVsBenno reproduces the §3.1 comparison: a scheduling
// pass after mass blocking, per scheduler design.
func BenchmarkLazyVsBenno(b *testing.B) {
	for _, kind := range []sched.Kind{sched.Lazy, sched.Benno, sched.BennoBitmap} {
		b.Run(kind.String(), func(b *testing.B) {
			// The 512-thread setup is timed along with the
			// pass (untimed per-iteration setup would make
			// b.N explode); the simulated-cycle metric
			// isolates the scheduling pass itself.
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s := sched.New(kind)
				for j := 0; j < 512; j++ {
					t := &kobj.TCB{Prio: 128, State: kobj.ThreadRunnable}
					s.Enqueue(t)
					t.State = kobj.ThreadBlockedOnSend
					s.OnBlock(t)
				}
				_, c := s.ChooseThread()
				cycles += c
			}
			if b.N > 0 {
				b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/pass")
			}
		})
	}
}

// BenchmarkSchedulerBitmap compares ChooseThread with and without the
// two-level CLZ bitmap (§3.2) at a low priority (the scan's worst
// case).
func BenchmarkSchedulerBitmap(b *testing.B) {
	for _, kind := range []sched.Kind{sched.Benno, sched.BennoBitmap} {
		b.Run(kind.String(), func(b *testing.B) {
			s := sched.New(kind)
			t := &kobj.TCB{Prio: 0, State: kobj.ThreadRunnable}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s.Enqueue(t)
				_, c := s.ChooseThread()
				cycles += c
			}
			if b.N > 0 {
				b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/choose")
			}
		})
	}
}

// latencyUnderAttack measures the worst interrupt latency while the
// kernel performs the given adversarial operation.
func latencyUnderAttack(b *testing.B, cfg KernelConfig, setup func(*System, *TCB) func() error) uint64 {
	b.Helper()
	sys, err := Boot(cfg)
	if err != nil {
		b.Fatal(err)
	}
	adv, err := sys.CreateThread("adv", 100)
	if err != nil {
		b.Fatal(err)
	}
	sys.StartThread(adv)
	op := setup(sys, adv)
	sys.SetTimer(sys.Now() + kernel.CostKernelEntry + kernel.CostSyscallDecode + 200)
	if err := op(); err != nil {
		b.Fatal(err)
	}
	if err := sys.InvariantFailure(); err != nil {
		b.Fatal(err)
	}
	return sys.MaxLatency()
}

// BenchmarkEndpointDeletion reproduces §3.3: interrupt latency during
// endpoint deletion with a 256-entry queue, per kernel variant.
func BenchmarkEndpointDeletion(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  KernelConfig
	}{{"original", OriginalKernel()}, {"modern", ModernKernel()}} {
		b.Run(v.name, func(b *testing.B) {
			var worst uint64
			for i := 0; i < b.N; i++ {
				worst = latencyUnderAttack(b, v.cfg, func(sys *System, adv *TCB) func() error {
					eps, err := sys.CreateObjects(adv, TypeEndpoint, 0, 1)
					if err != nil {
						b.Fatal(err)
					}
					for j := 0; j < 256; j++ {
						w, _ := sys.CreateThread("w", 50)
						sys.StartThread(w)
						sys.Send(w, eps[0], 1, nil, false)
					}
					return func() error { return sys.DeleteCap(adv, eps[0]) }
				})
			}
			b.ReportMetric(float64(worst), "worst-latency-cycles")
		})
	}
}

// BenchmarkBadgedAbort reproduces §3.4: latency during badge
// revocation over a populated queue.
func BenchmarkBadgedAbort(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  KernelConfig
	}{{"original", OriginalKernel()}, {"modern", ModernKernel()}} {
		b.Run(v.name, func(b *testing.B) {
			var worst uint64
			for i := 0; i < b.N; i++ {
				worst = latencyUnderAttack(b, v.cfg, func(sys *System, adv *TCB) func() error {
					eps, err := sys.CreateObjects(adv, TypeEndpoint, 0, 1)
					if err != nil {
						b.Fatal(err)
					}
					badged, err := sys.MintBadgedCap(adv, eps[0], 3)
					if err != nil {
						b.Fatal(err)
					}
					for j := 0; j < 256; j++ {
						w, _ := sys.CreateThread("w", 50)
						sys.StartThread(w)
						sys.Send(w, badged, 1, nil, false)
					}
					return func() error { return sys.RevokeBadge(adv, eps[0], 3) }
				})
			}
			b.ReportMetric(float64(worst), "worst-latency-cycles")
		})
	}
}

// BenchmarkObjectCreation reproduces §3.5: latency during 1 MiB frame
// creation (a long memory clear).
func BenchmarkObjectCreation(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  KernelConfig
	}{{"original", OriginalKernel()}, {"modern", ModernKernel()}} {
		b.Run(v.name, func(b *testing.B) {
			var worst uint64
			for i := 0; i < b.N; i++ {
				worst = latencyUnderAttack(b, v.cfg, func(sys *System, adv *TCB) func() error {
					return func() error {
						_, err := sys.CreateObjects(adv, TypeFrame, 20, 1)
						return err
					}
				})
			}
			b.ReportMetric(float64(worst), "worst-latency-cycles")
		})
	}
}

// BenchmarkVSpaceDesigns reproduces §3.6: address-space teardown under
// the two designs.
func BenchmarkVSpaceDesigns(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  KernelConfig
	}{{"asid", OriginalKernel()}, {"shadow", ModernKernel()}} {
		b.Run(v.name, func(b *testing.B) {
			var worst uint64
			for i := 0; i < b.N; i++ {
				worst = latencyUnderAttack(b, v.cfg, func(sys *System, adv *TCB) func() error {
					pds, err := sys.CreateObjects(adv, TypePageDirectory, 0, 1)
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.AssignVSpace(adv, pds[0]); err != nil {
						b.Fatal(err)
					}
					pts, _ := sys.CreateObjects(adv, TypePageTable, 0, 1)
					sys.MapPageTable(adv, pts[0], 64<<20)
					frames, _ := sys.CreateObjects(adv, TypeFrame, 12, 64)
					for j, f := range frames {
						sys.MapFrame(adv, f, uint32(64<<20)+uint32(j)<<12)
					}
					return func() error { return sys.DeleteVSpace(adv, pds[0]) }
				})
			}
			b.ReportMetric(float64(worst), "worst-latency-cycles")
		})
	}
}

// --- Ablations: design choices DESIGN.md calls out ---

// BenchmarkAblationConstraints quantifies the §5.2 user constraints'
// effect on the syscall bound.
func BenchmarkAblationConstraints(b *testing.B) {
	im, err := BuildImage(Modern, false)
	if err != nil {
		b.Fatal(err)
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		free := wcet.New(im.Img, Hardware{})
		rf, err := free.Analyze(string(Syscall))
		if err != nil {
			b.Fatal(err)
		}
		without = rf.Cycles
		con := wcet.New(im.Img, Hardware{})
		con.AddConstraints(im.Constraints...)
		rc, err := con.Analyze(string(Syscall))
		if err != nil {
			b.Fatal(err)
		}
		with = rc.Cycles
	}
	b.ReportMetric(float64(without-with), "cycles-saved-by-constraints")
}

// BenchmarkAblationSplitSendReceive quantifies the §6.1 future-work
// preemption point between ReplyRecv's phases.
func BenchmarkAblationSplitSendReceive(b *testing.B) {
	run := func(split bool) uint64 {
		cfg := ModernKernel()
		cfg.SplitSendReceive = split
		cfg.Fastpath = false
		sys, err := Boot(cfg)
		if err != nil {
			b.Fatal(err)
		}
		server, _ := sys.CreateThread("server", 200)
		sys.StartThread(server)
		client, _ := sys.CreateThread("client", 100)
		sys.StartThread(client)
		eps, _ := sys.CreateObjects(client, TypeEndpoint, 0, 1)
		sys.Recv(server, eps[0])
		sys.Call(client, eps[0], 120, nil)
		sys.SetTimer(sys.Now() + kernel.CostKernelEntry + 1)
		if err := sys.ReplyRecv(server, eps[0]); err != nil {
			b.Fatal(err)
		}
		return sys.MaxLatency()
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(float64(without), "latency-unsplit")
	b.ReportMetric(float64(with), "latency-split")
}

// BenchmarkILPSolve isolates the ILP solver on the syscall IPET
// problem — the paper's dominant analysis cost (§6.3).
func BenchmarkILPSolve(b *testing.B) {
	// A representative flow problem: a chain of diamonds with a
	// loop, resembling the IPET structure.
	build := func() *ilp.Problem {
		p := ilp.NewProblem()
		const n = 60
		prev := p.AddVar("entry", 1)
		p.AddConstraint(ilp.Constraint{Coeffs: map[int]float64{prev: 1}, Sense: ilp.EQ, RHS: 1})
		for i := 0; i < n; i++ {
			a := p.AddVar("a", float64(10+i%7))
			c := p.AddVar("b", float64(5+i%11))
			j := p.AddVar("j", 1)
			p.AddConstraint(ilp.Constraint{Coeffs: map[int]float64{a: 1, c: 1, prev: -1}, Sense: ilp.EQ, RHS: 0})
			p.AddConstraint(ilp.Constraint{Coeffs: map[int]float64{j: 1, a: -1, c: -1}, Sense: ilp.EQ, RHS: 0})
			prev = j
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := build()
		s, err := ilp.Solve(p)
		if err != nil || s.Status != ilp.Optimal {
			b.Fatalf("%v %v", err, s)
		}
	}
}

// BenchmarkWorstTraceReplay measures replaying the syscall worst path
// on the concrete machine — the unit of the observed columns.
func BenchmarkWorstTraceReplay(b *testing.B) {
	im, err := BuildImage(Modern, false)
	if err != nil {
		b.Fatal(err)
	}
	bd, err := im.Analyze(Hardware{}, Syscall)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := machine.New(Hardware{})
		m.LoadImage(im.Img)
		m.Pollute(uint32(i))
		m.Run(bd.Result.Trace)
	}
}

// BenchmarkAblationL2Locking quantifies the §4/§6.4 future-work idea:
// locking the whole kernel into the L2 cache.
func BenchmarkAblationL2Locking(b *testing.B) {
	var rows []L2LockAblation
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = AblationL2Lock(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Entry == Syscall {
			b.ReportMetric(r.ReductionPercent, "syscall-bound-reduction%")
		}
	}
}

// BenchmarkAblationClearChunk sweeps the §3.5 preemption granularity.
func BenchmarkAblationClearChunk(b *testing.B) {
	var rows []ChunkAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = AblationClearChunk(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.ChunkBytes == 256 || r.ChunkBytes == 1024 || r.ChunkBytes == 16384 {
			b.ReportMetric(float64(r.WorstLatency), fmt.Sprintf("latency@%dB", r.ChunkBytes))
		}
	}
}

// BenchmarkAblationTCM compares the §4/§5.1 latency-hiding mechanisms
// on the interrupt path.
func BenchmarkAblationTCM(b *testing.B) {
	var r TCMAblation
	var err error
	for i := 0; i < b.N; i++ {
		r, err = AblationTCM(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BaselineCycles), "irq-baseline")
	b.ReportMetric(float64(r.PinnedCycles), "irq-pinned")
	b.ReportMetric(float64(r.TCMCycles), "irq-tcm")
}

// --- Observability benches ---

// BenchmarkTracerOverhead runs the fastpath IPC round with tracing
// detached and attached. The disabled case is the acceptance criterion:
// every emit site reduces to one predictable nil check, so the two
// sub-benchmarks must be within noise of each other.
func BenchmarkTracerOverhead(b *testing.B) {
	run := func(b *testing.B, tracer *obs.Tracer) {
		sys, err := Boot(ModernKernel())
		if err != nil {
			b.Fatal(err)
		}
		if tracer != nil {
			sys.SetTracer(tracer)
		}
		server, _ := sys.CreateThread("server", 200)
		sys.StartThread(server)
		client, _ := sys.CreateThread("client", 100)
		sys.StartThread(client)
		eps, err := sys.CreateObjects(client, TypeEndpoint, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Recv(server, eps[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Send(client, eps[0], 2, nil, false); err != nil {
				b.Fatal(err)
			}
			server.State = kobj.ThreadRunning
			if err := sys.Recv(server, eps[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, obs.NewTracer(1<<16)) })
}

// BenchmarkObsEmit isolates the tracer's own cost: the nil-receiver
// fast path (what a production build pays everywhere) and a live emit
// into a full ring (which must not allocate).
func BenchmarkObsEmit(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var tr *obs.Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Emit(obs.KindPreemptHit, uint64(i), 0, 0)
		}
	})
	b.Run("live", func(b *testing.B) {
		tr := obs.NewTracer(1 << 12)
		for i := 0; i < 1<<12; i++ {
			tr.Emit(obs.KindPreemptHit, 0, 0, 0) // grow the ring to capacity
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Emit(obs.KindIRQService, uint64(i), uint64(i%512), 0)
		}
	})
}
