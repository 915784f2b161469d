package kernel

import (
	"math/rand"
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

func boot(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// mustThread creates and starts a thread.
func mustThread(t *testing.T, k *Kernel, name string, prio uint8) *kobj.TCB {
	t.Helper()
	th, err := k.CreateThread(name, prio)
	if err != nil {
		t.Fatal(err)
	}
	k.StartThread(th)
	return th
}

// mustEndpoint creates an endpoint via the kernel API and returns its
// cap address.
func mustEndpoint(t *testing.T, k *Kernel, creator *kobj.TCB) uint32 {
	t.Helper()
	addrs, err := k.CreateObjects(creator, kobj.TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return addrs[0]
}

func assertClean(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.InvariantFailure(); err != nil {
		t.Fatal(err)
	}
}

func TestBootClean(t *testing.T) {
	for _, cfg := range []Config{Modern(), Original()} {
		k := boot(t, cfg)
		k.checkInvariants(true)
		assertClean(t, k)
		if k.rootCNode == nil || k.RootUntyped() == nil {
			t.Error("boot objects missing")
		}
	}
}

func TestIPCPingPong(t *testing.T) {
	k := boot(t, Modern())
	server := mustThread(t, k, "server", 150)
	client := mustThread(t, k, "client", 100)
	ep := mustEndpoint(t, k, client)

	if err := k.Recv(server, ep); err != nil {
		t.Fatal(err)
	}
	if server.State != kobj.ThreadBlockedOnRecv {
		t.Fatalf("server state %v", server.State)
	}
	if err := k.Call(client, ep, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Direct switch: the server runs with the message.
	if k.Current() != server {
		t.Errorf("current = %v, want server", k.Current())
	}
	if server.SendBadge != 0 || server.MsgLen != 4 {
		t.Error("message not delivered")
	}
	if client.State != kobj.ThreadBlockedOnReply {
		t.Errorf("client state %v, want blocked-reply", client.State)
	}
	// Server replies and waits again.
	if err := k.ReplyRecv(server, ep); err != nil {
		t.Fatal(err)
	}
	if client.State != kobj.ThreadRunnable && client.State != kobj.ThreadRunning {
		t.Errorf("client not unblocked: %v", client.State)
	}
	if server.State != kobj.ThreadBlockedOnRecv {
		t.Errorf("server not waiting: %v", server.State)
	}
	assertClean(t, k)
}

func TestFastpathUsed(t *testing.T) {
	k := boot(t, Modern())
	server := mustThread(t, k, "server", 150)
	client := mustThread(t, k, "client", 100)
	ep := mustEndpoint(t, k, client)
	k.Recv(server, ep)
	before := k.Now()
	if err := k.Send(client, ep, 2, nil, false); err != nil {
		t.Fatal(err)
	}
	cost := k.Now() - before
	if got := k.Stats().FastpathIPCs; got != 1 {
		t.Errorf("fastpath IPCs = %d, want 1", got)
	}
	// Fastpath cost stays within the same order as the paper's
	// 200–250 cycles plus entry/exit.
	if cost > 2000 {
		t.Errorf("fastpath round trip cost %d cycles", cost)
	}
	assertClean(t, k)
}

func TestFastpathDisabledFallsBack(t *testing.T) {
	cfg := Modern()
	cfg.Fastpath = false
	k := boot(t, cfg)
	server := mustThread(t, k, "server", 150)
	client := mustThread(t, k, "client", 100)
	ep := mustEndpoint(t, k, client)
	k.Recv(server, ep)
	k.Send(client, ep, 2, nil, false)
	s := k.Stats()
	if s.FastpathIPCs != 0 || s.SlowpathIPCs == 0 {
		t.Errorf("stats %+v, want slowpath only", s)
	}
}

// TestDeletionLatencyBounded is the paper's headline behaviour: an
// interrupt arriving during a long endpoint deletion is serviced within
// a bounded number of cycles when preemption points are enabled, and
// only after the entire operation when they are not.
func TestDeletionLatencyBounded(t *testing.T) {
	const waiters = 200
	run := func(cfg Config) (latency uint64, k *Kernel) {
		k = boot(t, cfg)
		adversary := mustThread(t, k, "adversary", 100)
		ep := mustEndpoint(t, k, adversary)
		for i := 0; i < waiters; i++ {
			w := mustThread(t, k, "w", 50)
			if err := k.Send(w, ep, 1, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		// Fire the timer just after deletion begins.
		k.SetTimer(k.Now() + CostKernelEntry + CostSyscallDecode + 500)
		if err := k.DeleteCap(adversary, ep); err != nil {
			t.Fatal(err)
		}
		if got := k.Stats().IRQsServiced; got != 1 {
			t.Fatalf("IRQs serviced = %d, want 1", got)
		}
		return k.MaxLatency(), k
	}

	modernLat, km := run(Modern())
	assertClean(t, km)
	originalLat, ko := run(Original())
	assertClean(t, ko)

	if modernLat >= originalLat {
		t.Errorf("preemption points did not help: modern %d vs original %d", modernLat, originalLat)
	}
	// The original kernel's latency scales with the queue length;
	// the modern kernel's does not.
	if originalLat < waiters*60 {
		t.Errorf("original latency %d suspiciously small", originalLat)
	}
	if modernLat > 20000 {
		t.Errorf("modern latency %d not bounded", modernLat)
	}
	if km.Stats().Preemptions == 0 {
		t.Error("modern kernel never hit a preemption point")
	}
	if km.Stats().Restarts == 0 {
		t.Error("preempted operation never restarted")
	}
}

// TestLatencyScalesOriginalOnly: latency grows linearly with workload
// size in the original kernel, stays flat in the modern one.
func TestLatencyScalesOriginalOnly(t *testing.T) {
	measure := func(cfg Config, waiters int) uint64 {
		k := boot(t, cfg)
		a := mustThread(t, k, "a", 100)
		ep := mustEndpoint(t, k, a)
		for i := 0; i < waiters; i++ {
			w := mustThread(t, k, "w", 50)
			k.Send(w, ep, 1, nil, false)
		}
		k.SetTimer(k.Now() + CostKernelEntry + CostSyscallDecode + 100)
		if err := k.DeleteCap(a, ep); err != nil {
			t.Fatal(err)
		}
		return k.MaxLatency()
	}
	for _, n := range []int{50, 400} {
		t.Logf("waiters=%d modern=%d original=%d", n, measure(Modern(), n), measure(Original(), n))
	}
	mSmall, mBig := measure(Modern(), 50), measure(Modern(), 400)
	oSmall, oBig := measure(Original(), 50), measure(Original(), 400)
	if oBig < 4*oSmall {
		t.Errorf("original latency did not scale: %d -> %d", oSmall, oBig)
	}
	if mBig > 2*mSmall {
		t.Errorf("modern latency scaled with workload: %d -> %d", mSmall, mBig)
	}
}

func TestCreateLargeFramePreemptible(t *testing.T) {
	// Creating a 1 MiB frame clears 1024 KiB chunk by chunk; a
	// pending IRQ mid-clear is serviced promptly under Modern.
	run := func(cfg Config) (uint64, *Kernel) {
		k := boot(t, cfg)
		creator := mustThread(t, k, "creator", 100)
		k.SetTimer(k.Now() + CostKernelEntry + CostSyscallDecode + 2000)
		if _, err := k.CreateObjects(creator, kobj.TypeFrame, 20, 1); err != nil {
			t.Fatal(err)
		}
		return k.MaxLatency(), k
	}
	modern, km := run(Modern())
	original, ko := run(Original())
	assertClean(t, km)
	assertClean(t, ko)
	if modern >= original {
		t.Errorf("preemptible clearing no better: %d vs %d", modern, original)
	}
	// Original: the full megabyte is cleared with the IRQ pending —
	// over a thousand 1 KiB chunks at ~10.6k cycles each.
	if original < 1000*10000 {
		t.Errorf("original clear latency %d too small", original)
	}
	// Modern: within a couple of 1 KiB chunks plus overheads.
	if modern > 60000 {
		t.Errorf("modern clear latency %d too large", modern)
	}
}

func TestRevokeBadgeEndToEnd(t *testing.T) {
	k := boot(t, Modern())
	server := mustThread(t, k, "server", 200)
	ep := mustEndpoint(t, k, server)
	// Mint two badges; clients of badge 1 and 2 queue messages.
	b1, err := k.MintBadgedCap(server, ep, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := k.MintBadgedCap(server, ep, 2)
	if err != nil {
		t.Fatal(err)
	}
	var clients1, clients2 []*kobj.TCB
	for i := 0; i < 6; i++ {
		c := mustThread(t, k, "c1", 50)
		k.Send(c, b1, 1, nil, false)
		clients1 = append(clients1, c)
		d := mustThread(t, k, "c2", 50)
		k.Send(d, b2, 1, nil, false)
		clients2 = append(clients2, d)
	}
	if err := k.RevokeBadge(server, ep, 1); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients1 {
		if c.State != kobj.ThreadRunnable {
			t.Errorf("badge-1 client %d not aborted: %v", i, c.State)
		}
	}
	for i, c := range clients2 {
		if c.State != kobj.ThreadBlockedOnSend {
			t.Errorf("badge-2 client %d disturbed: %v", i, c.State)
		}
	}
	assertClean(t, k)
}

func TestRevokeBadgePreemptedBounded(t *testing.T) {
	k := boot(t, Modern())
	server := mustThread(t, k, "server", 200)
	ep := mustEndpoint(t, k, server)
	badged, _ := k.MintBadgedCap(server, ep, 9)
	for i := 0; i < 100; i++ {
		c := mustThread(t, k, "c", 50)
		k.Send(c, badged, 1, nil, false)
	}
	k.SetTimer(k.Now() + CostKernelEntry + CostSyscallDecode + 100)
	if err := k.RevokeBadge(server, ep, 9); err != nil {
		t.Fatal(err)
	}
	if k.MaxLatency() > 20000 {
		t.Errorf("revoke latency %d not bounded", k.MaxLatency())
	}
	if k.Stats().Preemptions == 0 {
		t.Error("revoke never preempted")
	}
	assertClean(t, k)
}

func TestVSpaceLifecycleBothDesigns(t *testing.T) {
	for _, cfg := range []Config{Modern(), Original()} {
		k := boot(t, cfg)
		owner := mustThread(t, k, "owner", 100)
		pdAddrs, err := k.CreateObjects(owner, kobj.TypePageDirectory, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AssignVSpace(owner, pdAddrs[0]); err != nil {
			t.Fatal(err)
		}
		ptAddrs, err := k.CreateObjects(owner, kobj.TypePageTable, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.MapPageTable(owner, ptAddrs[0], 64<<20); err != nil {
			t.Fatal(err)
		}
		frAddrs, err := k.CreateObjects(owner, kobj.TypeFrame, 12, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, fa := range frAddrs {
			if err := k.MapFrame(owner, fa, uint32(64<<20)+uint32(i)<<12); err != nil {
				t.Fatal(err)
			}
		}
		k.checkInvariants(true)
		assertClean(t, k)
		if err := k.UnmapFrame(owner, frAddrs[0]); err != nil {
			t.Fatal(err)
		}
		if err := k.DeleteVSpace(owner, pdAddrs[0]); err != nil {
			t.Fatal(err)
		}
		if owner.VSpaceRoot != nil {
			t.Error("thread kept deleted vspace")
		}
		k.checkInvariants(true)
		assertClean(t, k)
	}
}

func TestVSpaceDeleteLatency(t *testing.T) {
	// Shadow deletion is long but preemptible; ASID deletion is
	// O(1). Both bound latency — by different means (§3.6).
	prep := func(cfg Config) (*Kernel, *kobj.TCB, uint32) {
		k := boot(t, cfg)
		owner := mustThread(t, k, "owner", 100)
		pdAddrs, _ := k.CreateObjects(owner, kobj.TypePageDirectory, 0, 1)
		k.AssignVSpace(owner, pdAddrs[0])
		ptAddrs, _ := k.CreateObjects(owner, kobj.TypePageTable, 0, 1)
		k.MapPageTable(owner, ptAddrs[0], 64<<20)
		frAddrs, _ := k.CreateObjects(owner, kobj.TypeFrame, 12, 64)
		for i, fa := range frAddrs {
			k.MapFrame(owner, fa, uint32(64<<20)+uint32(i)<<12)
		}
		return k, owner, pdAddrs[0]
	}
	for _, cfg := range []Config{Modern(), Original()} {
		k, owner, pd := prep(cfg)
		k.SetTimer(k.Now() + CostKernelEntry + CostSyscallDecode + 50)
		if err := k.DeleteVSpace(owner, pd); err != nil {
			t.Fatal(err)
		}
		if k.MaxLatency() > 25000 {
			t.Errorf("%v: vspace delete latency %d not bounded", cfg.VSpace, k.MaxLatency())
		}
	}
}

func TestSplitSendReceiveReducesWorstPhase(t *testing.T) {
	// With the split enabled, an IRQ arriving during ReplyRecv is
	// serviced between the phases.
	run := func(split bool) uint64 {
		cfg := Modern()
		cfg.SplitSendReceive = split
		cfg.Fastpath = false
		k := boot(t, cfg)
		server := mustThread(t, k, "server", 200)
		client := mustThread(t, k, "client", 100)
		ep := mustEndpoint(t, k, client)
		k.Recv(server, ep)
		k.Call(client, ep, kobj.MaxMsgWords, nil)
		// IRQ fires immediately as the reply phase starts.
		k.SetTimer(k.Now() + CostKernelEntry + 1)
		if err := k.ReplyRecv(server, ep); err != nil {
			t.Fatal(err)
		}
		return k.MaxLatency()
	}
	withSplit := run(true)
	without := run(false)
	if withSplit >= without {
		t.Errorf("split send-receive did not reduce latency: %d vs %d", withSplit, without)
	}
}

// TestReplyRecvKeepsDirectSwitchCaller: a reply to a caller of higher
// priority than the server picks the caller for a direct switch, and
// the server's receive phase then blocks. The caller must run next, not
// be left runnable but neither queued nor current — with or without
// the preemption point between the phases, and when an interrupt is
// taken there.
func TestReplyRecvKeepsDirectSwitchCaller(t *testing.T) {
	for _, c := range []struct {
		split, irq bool
	}{{false, false}, {true, false}, {true, true}} {
		cfg := Modern()
		cfg.SplitSendReceive = c.split
		k := boot(t, cfg)
		server := mustThread(t, k, "server", 100)
		client := mustThread(t, k, "client", 200)
		ep := mustEndpoint(t, k, client)
		if err := k.Recv(server, ep); err != nil {
			t.Fatal(err)
		}
		if err := k.Call(client, ep, 2, nil); err != nil {
			t.Fatal(err)
		}
		if c.irq {
			// The interrupt fires as the reply phase starts.
			k.SetTimer(k.Now() + CostKernelEntry + 1)
		}
		if err := k.ReplyRecv(server, ep); err != nil {
			t.Fatal(err)
		}
		if err := k.InvariantFailure(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
		if c.irq && k.Stats().Preemptions == 0 {
			t.Errorf("%+v: the interrupt did not preempt the call between its phases", c)
		}
		if !c.irq && (k.Current() != client || client.State != kobj.ThreadRunning) {
			t.Errorf("%+v: current %v, client %v; want the client running", c, k.Current(), client.State)
		}
		if server.State != kobj.ThreadBlockedOnRecv {
			t.Errorf("%+v: server %v, want blocked on receive", c, server.State)
		}
	}
}

func TestIdleServicesIRQImmediately(t *testing.T) {
	k := boot(t, Modern())
	k.SetTimer(k.Now() + 1000)
	k.Idle(5000)
	if k.Stats().IRQsServiced != 1 {
		t.Fatal("idle IRQ not serviced")
	}
	// Latency: from assertion (cycle 1000) to service after kernel
	// entry — within entry + IRQ path + slack.
	if k.MaxLatency() > 4000+CostKernelEntry+CostIRQPath {
		t.Errorf("idle latency %d too large", k.MaxLatency())
	}
}

func TestAdversarialCapSpaceDecode(t *testing.T) {
	// A 32-level cap space makes decoding expensive (§6.1) but must
	// not break anything.
	k := boot(t, Modern())
	adversary := mustThread(t, k, "adv", 100)
	// Build the Fig. 7 space by hand: 32 CNodes of radix 1, no
	// guards... use guard bits 0 and radix 1: consumes 1 bit/level.
	mgr := k.Objects()
	epObjs, err := mgr.Retype(k.RootUntyped(), kobj.TypeEndpoint, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ep := epObjs[0].(*kobj.Endpoint)
	next := kobj.Cap{Type: kobj.CapEndpoint, Obj: ep, Rights: kobj.RightsAll}
	for l := 0; l < 32; l++ {
		cnObjs, err := mgr.Retype(k.RootUntyped(), kobj.TypeCNode, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		cn := cnObjs[0].(*kobj.CNode)
		cn.Slot(1).Cap = next
		next = kobj.Cap{Type: kobj.CapCNode, Obj: cn, Rights: kobj.RightsAll}
	}
	adversary.CSpaceRoot = next
	addr := ^uint32(0) // all ones: picks slot 1 at every level
	before := k.Now()
	if err := k.Send(adversary, addr, 1, nil, false); err != nil {
		t.Fatal(err)
	}
	deepCost := k.Now() - before

	// Compare with a 1-level decode.
	k2 := boot(t, Modern())
	a2 := mustThread(t, k2, "a2", 100)
	ep2 := mustEndpoint(t, k2, a2)
	before = k2.Now()
	if err := k2.Send(a2, ep2, 1, nil, false); err != nil {
		t.Fatal(err)
	}
	shallowCost := k2.Now() - before
	if deepCost < shallowCost+31*CostDecodeLevel {
		t.Errorf("deep decode cost %d vs shallow %d: missing per-level charge", deepCost, shallowCost)
	}
}

// Property: random workloads never violate invariants and never exceed
// a generous latency bound under the modern kernel.
func TestPropertyRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		k := boot(t, Modern())
		var threads []*kobj.TCB
		var eps []uint32
		creator := mustThread(t, k, "creator", 128)
		threads = append(threads, creator)
		for i := 0; i < 3; i++ {
			eps = append(eps, mustEndpoint(t, k, creator))
		}
		for op := 0; op < 150; op++ {
			// Fire a timer at a random near-future point to
			// exercise preemption paths.
			if rng.Intn(4) == 0 {
				k.SetTimer(k.Now() + uint64(rng.Intn(3000)))
			}
			switch rng.Intn(6) {
			case 0:
				th := mustThread(t, k, "t", uint8(rng.Intn(256)))
				threads = append(threads, th)
			case 1:
				th := threads[rng.Intn(len(threads))]
				if th.State == kobj.ThreadRunnable || th.State == kobj.ThreadRunning {
					k.Send(th, eps[rng.Intn(len(eps))], rng.Intn(8), nil, false)
				}
			case 2:
				th := threads[rng.Intn(len(threads))]
				if th.State == kobj.ThreadRunnable || th.State == kobj.ThreadRunning {
					k.Recv(th, eps[rng.Intn(len(eps))])
				}
			case 3:
				if rng.Intn(3) == 0 {
					k.RevokeBadge(creator, eps[rng.Intn(len(eps))], uint32(rng.Intn(3)))
				}
			case 4:
				k.Idle(uint64(rng.Intn(2000)))
			case 5:
				if creator.State.Runnable() {
					k.CreateObjects(creator, kobj.TypeEndpoint, 0, 1)
				}
			}
			if err := k.InvariantFailure(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
		if k.MaxLatency() > 50000 {
			t.Errorf("trial %d: worst latency %d exceeds bound", trial, k.MaxLatency())
		}
	}
}

func TestOriginalSchedulerPathology(t *testing.T) {
	// Under the original kernel, blocked threads accumulate on the
	// run queue; a scheduling pass after mass blocking is expensive
	// and runs with interrupts disabled (§3.1).
	k := boot(t, Original())
	ep := mustEndpoint(t, k, mustThread(t, k, "seed", 1))
	const n = 300
	for i := 0; i < n; i++ {
		w := mustThread(t, k, "w", 100)
		k.Send(w, ep, 1, nil, false) // blocks; lazy: stays queued
	}
	// Verify the lazy queues actually hold blocked threads.
	rq := k.Scheduler().Queues()
	count := 0
	for th := rq.Q[100].Head; th != nil; th = th.SchedNext {
		if !th.State.Runnable() {
			count++
		}
	}
	if count == 0 {
		t.Fatal("lazy scheduler has no lingering blocked threads")
	}
	// A timer fires; the scheduling pass must clean all of them
	// before the IRQ can be taken.
	k.SetTimer(k.Now() + 10)
	k.Yield()
	if k.MaxLatency() < uint64(count)*sched.CostDequeueBlocked {
		t.Errorf("latency %d did not reflect %d lazy dequeues", k.MaxLatency(), count)
	}
}

func TestVSpaceDesignMatchesConfig(t *testing.T) {
	if boot(t, Modern()).VSpace().Design() != vspace.ShadowDesign {
		t.Error("modern kernel not using shadow design")
	}
	if boot(t, Original()).VSpace().Design() != vspace.ASIDDesign {
		t.Error("original kernel not using ASID design")
	}
}

// TestRestartOverheadSmall reproduces the §2.1 claim (via Ford 1999)
// that restarting preempted operations — re-entering the kernel and
// re-decoding the system call — costs at most a few percent of the
// operations themselves. A periodic timer preempts a long endpoint
// deletion repeatedly; the duplicated entry/decode work is compared
// against the total.
func TestRestartOverheadSmall(t *testing.T) {
	k := boot(t, Modern())
	adversary := mustThread(t, k, "adversary", 100)
	ep := mustEndpoint(t, k, adversary)
	const waiters = 512
	for i := 0; i < waiters; i++ {
		w := mustThread(t, k, "w", 50)
		k.Send(w, ep, 1, nil, false)
	}
	start := k.Now()
	// Fire every 8k cycles: several preemptions over the deletion.
	k.SetPeriodicTimer(8_000)
	if err := k.DeleteCap(adversary, ep); err != nil {
		t.Fatal(err)
	}
	total := k.Now() - start
	restarts := k.Stats().Restarts
	if restarts < 4 {
		t.Fatalf("only %d restarts; periodic preemption not exercising the restart path", restarts)
	}
	perRestart := uint64(CostKernelEntry + CostSyscallDecode + CostDecodeLevel + CostKernelExit)
	overhead := float64(restarts*perRestart) / float64(total)
	t.Logf("restarts=%d, overhead=%.1f%% of operation cycles (Fluke: at most 8%%)", restarts, overhead*100)
	if overhead > 0.10 {
		t.Errorf("restart overhead %.1f%% exceeds the ~8%% the model targets", overhead*100)
	}
	assertClean(t, k)
}

// TestPeriodicTimerLatencyBound: every release of a periodic timer is
// serviced within the bounded latency while an adversary hammers the
// kernel with long operations.
func TestPeriodicTimerLatencyBound(t *testing.T) {
	k := boot(t, Modern())
	adversary := mustThread(t, k, "adversary", 100)
	k.SetPeriodicTimer(50_000)
	// A sustained attack: repeated large-object creation.
	for i := 0; i < 6; i++ {
		if _, err := k.CreateObjects(adversary, kobj.TypeFrame, 18, 1); err != nil {
			t.Fatal(err)
		}
	}
	if k.Stats().IRQsServiced < 10 {
		t.Fatalf("only %d IRQs serviced over a long attack", k.Stats().IRQsServiced)
	}
	if k.MaxLatency() > 25_000 {
		t.Errorf("worst periodic-release latency %d cycles not bounded", k.MaxLatency())
	}
	assertClean(t, k)
}

// TestPropertyRandomWorkloadOriginal: the pre-modification kernel must
// also keep its (weaker) invariant set — lazy queues may hold blocked
// threads, but everything else holds — under random workloads.
func TestPropertyRandomWorkloadOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 4; trial++ {
		k := boot(t, Original())
		creator := mustThread(t, k, "creator", 128)
		var eps []uint32
		for i := 0; i < 2; i++ {
			eps = append(eps, mustEndpoint(t, k, creator))
		}
		threads := []*kobj.TCB{creator}
		for op := 0; op < 100; op++ {
			if rng.Intn(4) == 0 {
				k.SetTimer(k.Now() + uint64(rng.Intn(5000)))
			}
			switch rng.Intn(5) {
			case 0:
				threads = append(threads, mustThread(t, k, "t", uint8(rng.Intn(256))))
			case 1:
				th := threads[rng.Intn(len(threads))]
				if th.State.Runnable() {
					k.Send(th, eps[rng.Intn(len(eps))], rng.Intn(4), nil, false)
				}
			case 2:
				th := threads[rng.Intn(len(threads))]
				if th.State.Runnable() {
					k.Recv(th, eps[rng.Intn(len(eps))])
				}
			case 3:
				k.Yield()
			case 4:
				k.Idle(uint64(rng.Intn(1500)))
			}
			if err := k.InvariantFailure(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
		// The original kernel must never have hit a preemption
		// point: it has none.
		if k.Stats().Preemptions != 0 {
			t.Errorf("original kernel hit %d preemption points", k.Stats().Preemptions)
		}
	}
}
