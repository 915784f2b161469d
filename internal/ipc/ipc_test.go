package ipc

import (
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/sched"
)

// testEnv returns an Env with a Benno+bitmap scheduler and a preemption
// probe driven by the returned flag.
func testEnv() (*Env, *bool) {
	pending := false
	e := &Env{
		Env:   ktime.Env{Clock: &ktime.Clock{}, Preempt: func() bool { return pending }},
		Sched: sched.New(sched.BennoBitmap),
	}
	return e, &pending
}

func mkThread(name string, prio uint8) *kobj.TCB {
	return &kobj.TCB{Name: name, Prio: prio, State: kobj.ThreadRunning}
}

func mkEP() *kobj.Endpoint { return &kobj.Endpoint{Name: "ep"} }

func TestSendBlocksWithoutReceiver(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	s := mkThread("sender", 100)
	out, sw := Send(e, s, ep, 7, 2, 0, false)
	if out != ktime.Blocked || sw != nil {
		t.Fatalf("Send = %v/%v, want Blocked/nil", out, sw)
	}
	if s.State != kobj.ThreadBlockedOnSend || s.WaitingOn != ep {
		t.Error("sender not queued on endpoint")
	}
	if ep.State != kobj.EPSending || ep.QueueLen() != 1 {
		t.Error("endpoint state wrong")
	}
}

func TestRendezvousTransfers(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	r := mkThread("recv", 150)
	s := mkThread("send", 100)
	if out, _ := Recv(e, r, ep); out != ktime.Blocked {
		t.Fatal("receiver did not block")
	}
	out, sw := Send(e, s, ep, 42, 8, 1, false)
	if out != ktime.Done {
		t.Fatalf("Send = %v, want Done", out)
	}
	// Receiver has higher prio: direct switch.
	if sw != r {
		t.Error("no direct switch to higher-priority receiver")
	}
	if r.MsgLen != 8 || r.MsgCaps != 1 || r.SendBadge != 42 {
		t.Errorf("transfer lost data: %+v", r)
	}
	if r.State != kobj.ThreadRunnable {
		t.Error("receiver not runnable")
	}
	if ep.QueueLen() != 0 || ep.State != kobj.EPIdle {
		t.Error("endpoint not idle after rendezvous")
	}
}

func TestSendToLowerPriorityEnqueues(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	r := mkThread("recv", 50)
	s := mkThread("send", 100)
	Recv(e, r, ep)
	out, sw := Send(e, s, ep, 0, 1, 0, false)
	if out != ktime.Done || sw != nil {
		t.Fatalf("Send = %v/%v, want Done/nil (receiver queued, no switch)", out, sw)
	}
	if !r.InRunQueue {
		t.Error("lower-priority receiver not placed on run queue")
	}
}

func TestCallReplyCycle(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	server := mkThread("server", 120)
	client := mkThread("client", 100)
	Recv(e, server, ep)
	out, sw := Send(e, client, ep, 9, 4, 0, true)
	if out != ktime.Done || sw != server {
		t.Fatalf("call: %v/%v", out, sw)
	}
	if client.State != kobj.ThreadBlockedOnReply {
		t.Error("caller not blocked on reply")
	}
	if server.CallerOf != client {
		t.Error("server lost reply right")
	}
	server.MsgLen = 2
	out, _ = Reply(e, server)
	if out != ktime.Done {
		t.Fatalf("reply: %v", out)
	}
	if client.State != kobj.ThreadRunnable {
		t.Error("caller not unblocked by reply")
	}
	if client.MsgLen != 2 {
		t.Error("reply message not transferred")
	}
	if server.CallerOf != nil {
		t.Error("reply right not consumed")
	}
}

func TestReplyWithoutCallerFails(t *testing.T) {
	e, _ := testEnv()
	if out, _ := Reply(e, mkThread("s", 1)); out != ktime.Failed {
		t.Error("Reply without caller did not fail")
	}
}

func TestReplyRecvAtomic(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	server := mkThread("server", 120)
	c1 := mkThread("c1", 100)
	c2 := mkThread("c2", 100)
	Recv(e, server, ep)
	Send(e, c1, ep, 1, 1, 0, true)
	// c2 queues a call while the server works.
	out, _ := Send(e, c2, ep, 2, 1, 0, true)
	if out != ktime.Blocked {
		t.Fatalf("second call should queue, got %v", out)
	}
	// Server replies to c1 and receives c2 in one operation, as the
	// kernel's ReplyRecv composes it.
	if out, _ = Reply(e, server); out != ktime.Done {
		t.Fatalf("Reply = %v", out)
	}
	if out, _ = Recv(e, server, ep); out != ktime.Done {
		t.Fatalf("Recv = %v", out)
	}
	if c1.State != kobj.ThreadRunnable {
		t.Error("c1 not unblocked")
	}
	if server.SendBadge != 2 || server.CallerOf != c2 {
		t.Error("server did not receive c2's call")
	}
}

func TestFastpathConditions(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	s := mkThread("send", 100)
	if FastpathOK(ep, s, 1, 0) {
		t.Error("fastpath with no receiver")
	}
	r := mkThread("recv", 150)
	Recv(e, r, ep)
	if !FastpathOK(ep, s, 4, 0) {
		t.Error("fastpath rejected in the ideal case")
	}
	if FastpathOK(ep, s, 5, 0) {
		t.Error("fastpath accepted an overlong message")
	}
	if FastpathOK(ep, s, 1, 1) {
		t.Error("fastpath accepted a cap transfer")
	}
	ep.Deactivated = true
	if FastpathOK(ep, s, 1, 0) {
		t.Error("fastpath accepted a deactivated endpoint")
	}
	ep.Deactivated = false
	ep.AbortActive = true
	if FastpathOK(ep, s, 1, 0) {
		t.Error("fastpath accepted during badged abort")
	}
}

func TestFastpathConstantCost(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	r := mkThread("recv", 150)
	s := mkThread("send", 100)
	Recv(e, r, ep)
	before := e.Clock.Now()
	got := Fastpath(e, s, ep, 3, 2)
	if got != r {
		t.Fatal("fastpath returned wrong receiver")
	}
	if cost := e.Clock.Now() - before; cost != CostFastpath {
		t.Errorf("fastpath cost %d, want %d", cost, CostFastpath)
	}
	if r.SendBadge != 3 || r.MsgLen != 2 {
		t.Error("fastpath lost message data")
	}
}

func TestSendToDeactivatedFails(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	ep.Deactivated = true
	if out, _ := Send(e, mkThread("s", 1), ep, 0, 1, 0, false); out != ktime.Failed {
		t.Error("send to deactivated endpoint did not fail")
	}
	if out, _ := Recv(e, mkThread("r", 1), ep); out != ktime.Failed {
		t.Error("recv on deactivated endpoint did not fail")
	}
}

func queueN(e *Env, ep *kobj.Endpoint, n int, badge func(i int) uint32) []*kobj.TCB {
	var out []*kobj.TCB
	for i := 0; i < n; i++ {
		s := mkThread("w", 10)
		Send(e, s, ep, badge(i), 1, 0, false)
		out = append(out, s)
	}
	return out
}

func TestDeleteEndpointRestartsAll(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	ws := queueN(e, ep, 20, func(i int) uint32 { return uint32(i) })
	out := DeleteEndpoint(e, ep)
	if out != ktime.Done {
		t.Fatalf("delete = %v", out)
	}
	for i, w := range ws {
		if w.State != kobj.ThreadRunnable || !w.RestartPC {
			t.Errorf("waiter %d not restarted: %v", i, w.State)
		}
		if w.WaitingOn != nil {
			t.Errorf("waiter %d still references endpoint", i)
		}
	}
	if ep.QueueLen() != 0 || !ep.Deactivated {
		t.Error("endpoint not fully deleted")
	}
}

func TestDeleteEndpointPreemptsAndResumes(t *testing.T) {
	e, pending := testEnv()
	ep := mkEP()
	queueN(e, ep, 10, func(i int) uint32 { return 0 })
	*pending = true
	out := DeleteEndpoint(e, ep)
	if out != ktime.Preempted {
		t.Fatalf("delete under pending IRQ = %v, want Preempted", out)
	}
	if !ep.Deactivated {
		t.Error("forward progress lost: endpoint not deactivated")
	}
	if ep.QueueLen() != 9 {
		t.Errorf("queue len %d after one preempted step, want 9", ep.QueueLen())
	}
	// New IPC cannot start on the deactivated endpoint (forward
	// progress guarantee, §3.3).
	if out, _ := Send(e, mkThread("late", 5), ep, 0, 1, 0, false); out != ktime.Failed {
		t.Error("send started on endpoint under deletion")
	}
	// Resume to completion.
	*pending = false
	if out := DeleteEndpoint(e, ep); out != ktime.Done {
		t.Fatalf("resumed delete = %v", out)
	}
	if ep.QueueLen() != 0 {
		t.Error("queue not drained after resume")
	}
}

func TestDeletePreemptionLatencyBounded(t *testing.T) {
	// With an IRQ always pending, each delete invocation performs
	// exactly one entry's work — the bounded latency contribution.
	e, pending := testEnv()
	ep := mkEP()
	queueN(e, ep, 50, func(i int) uint32 { return 0 })
	*pending = true
	for i := 0; i < 49; i++ {
		before := e.Clock.Now()
		if out := DeleteEndpoint(e, ep); out != ktime.Preempted {
			t.Fatalf("step %d: %v", i, out)
		}
		step := e.Clock.Now() - before
		if step > 200 {
			t.Fatalf("step %d cost %d cycles; per-step work must be constant", i, step)
		}
	}
	if out := DeleteEndpoint(e, ep); out != ktime.Done {
		t.Fatal("final step did not complete")
	}
}

func TestAbortBadgedRemovesOnlyMatching(t *testing.T) {
	e, _ := testEnv()
	ep := mkEP()
	ws := queueN(e, ep, 12, func(i int) uint32 { return uint32(i % 3) })
	worker := mkThread("worker", 200)
	out := AbortBadged(e, worker, ep, 1)
	if out != ktime.Done {
		t.Fatalf("abort = %v", out)
	}
	for i, w := range ws {
		if uint32(i%3) == 1 {
			if w.State != kobj.ThreadRunnable {
				t.Errorf("badge-1 waiter %d not aborted", i)
			}
		} else if w.State != kobj.ThreadBlockedOnSend || w.WaitingOn != ep {
			t.Errorf("waiter %d with badge %d disturbed", i, i%3)
		}
	}
	if ep.QueueLen() != 8 {
		t.Errorf("queue len %d, want 8", ep.QueueLen())
	}
	if ep.AbortActive {
		t.Error("abort state not cleared")
	}
}

func TestAbortBadgedPreemptsAndResumes(t *testing.T) {
	e, pending := testEnv()
	ep := mkEP()
	queueN(e, ep, 10, func(i int) uint32 { return 1 })
	worker := mkThread("worker", 200)
	*pending = true
	out := AbortBadged(e, worker, ep, 1)
	if out != ktime.Preempted {
		t.Fatalf("abort = %v, want Preempted", out)
	}
	if !ep.AbortActive || ep.AbortBadge != 1 || ep.AbortWorker != worker {
		t.Error("abort resume state not saved on the endpoint")
	}
	*pending = false
	if out := AbortBadged(e, worker, ep, 1); out != ktime.Done {
		t.Fatalf("resumed abort = %v", out)
	}
	if ep.QueueLen() != 0 {
		t.Errorf("queue len %d after abort of all-matching badges", ep.QueueLen())
	}
}

func TestAbortIgnoresLateWaiters(t *testing.T) {
	// Waiters that enqueue after the abort started (with other
	// badges) must not extend the walk (§3.4 item 2).
	e, pending := testEnv()
	ep := mkEP()
	queueN(e, ep, 5, func(i int) uint32 { return 1 })
	worker := mkThread("worker", 200)
	*pending = true
	if out := AbortBadged(e, worker, ep, 1); out != ktime.Preempted {
		t.Fatal("expected preemption")
	}
	// A new waiter with a different badge arrives mid-abort.
	late := mkThread("late", 10)
	if out, _ := Send(e, late, ep, 2, 1, 0, false); out != ktime.Blocked {
		t.Fatal("late sender did not queue")
	}
	*pending = false
	if out := AbortBadged(e, worker, ep, 1); out != ktime.Done {
		t.Fatal("abort did not finish")
	}
	if late.State != kobj.ThreadBlockedOnSend {
		t.Error("late waiter was scanned/aborted")
	}
	if ep.QueueLen() != 1 {
		t.Errorf("queue len %d, want 1 (the late waiter)", ep.QueueLen())
	}
}

func TestSecondAbortCompletesFirst(t *testing.T) {
	// A second abort with a different badge first finishes the
	// preempted one (§3.4 item 3/4).
	e, pending := testEnv()
	ep := mkEP()
	ws := queueN(e, ep, 6, func(i int) uint32 { return uint32(1 + i%2) })
	w1 := mkThread("w1", 200)
	w2 := mkThread("w2", 200)
	*pending = true
	if out := AbortBadged(e, w1, ep, 1); out != ktime.Preempted {
		t.Fatal("expected preemption of first abort")
	}
	*pending = false
	if out := AbortBadged(e, w2, ep, 2); out != ktime.Done {
		t.Fatal("second abort did not complete")
	}
	// Both badges must now be fully aborted.
	for i, w := range ws {
		if w.State != kobj.ThreadRunnable {
			t.Errorf("waiter %d (badge %d) not aborted", i, 1+i%2)
		}
	}
	if ep.QueueLen() != 0 {
		t.Error("queue not empty after both aborts")
	}
}
