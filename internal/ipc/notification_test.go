package ipc

import (
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
)

func mkNtfn() *kobj.Notification { return &kobj.Notification{Name: "n"} }

func TestSignalLatchesWithoutWaiter(t *testing.T) {
	e, _ := testEnv()
	n := mkNtfn()
	if w := Signal(e, n, 0b01, nil); w != nil {
		t.Fatal("signal with no waiter woke someone")
	}
	if w := Signal(e, n, 0b10, nil); w != nil {
		t.Fatal("second signal woke someone")
	}
	// Badges OR together.
	if n.Pending != 0b11 {
		t.Errorf("pending = %#b, want 0b11", n.Pending)
	}
}

func TestWaitConsumesPending(t *testing.T) {
	e, _ := testEnv()
	n := mkNtfn()
	Signal(e, n, 0b101, nil)
	w := mkThread("w", 100)
	if out := Wait(e, w, n); out != ktime.Done {
		t.Fatalf("Wait = %v, want Done", out)
	}
	if w.SendBadge != 0b101 {
		t.Errorf("badge word %#b", w.SendBadge)
	}
	if n.Pending != 0 {
		t.Error("pending not consumed")
	}
	if w.State != kobj.ThreadRunning {
		t.Errorf("waiter state changed to %v", w.State)
	}
}

func TestWaitBlocksThenSignalWakes(t *testing.T) {
	e, _ := testEnv()
	n := mkNtfn()
	w := mkThread("w", 150)
	if out := Wait(e, w, n); out != ktime.Blocked {
		t.Fatalf("Wait = %v, want Blocked", out)
	}
	if w.State != kobj.ThreadBlockedOnRecv || w.WaitingOnNtfn != n {
		t.Fatal("waiter not queued")
	}
	cur := mkThread("cur", 100)
	got := Signal(e, n, 7, cur)
	if got != w {
		t.Fatalf("signal did not direct-switch to the higher-priority waiter")
	}
	if w.SendBadge != 7 || w.State != kobj.ThreadRunnable {
		t.Error("wake did not deliver the badge")
	}
	if w.WaitingOnNtfn != nil || n.QHead != nil {
		t.Error("waiter still queued after wake")
	}
	if n.Pending != 0 {
		t.Error("pending word left set after delivery to a waiter")
	}
}

func TestSignalEnqueuesLowerPriorityWaiter(t *testing.T) {
	e, _ := testEnv()
	n := mkNtfn()
	w := mkThread("w", 50)
	Wait(e, w, n)
	cur := mkThread("cur", 200)
	if got := Signal(e, n, 1, cur); got != nil {
		t.Fatal("direct switch to a lower-priority waiter")
	}
	if !w.InRunQueue {
		t.Error("woken waiter not enqueued")
	}
}

func TestWaitersWakeInFIFO(t *testing.T) {
	e, _ := testEnv()
	n := mkNtfn()
	a := mkThread("a", 10)
	b := mkThread("b", 10)
	Wait(e, a, n)
	Wait(e, b, n)
	if n.QueueLen() != 2 {
		t.Fatalf("queue len %d", n.QueueLen())
	}
	Signal(e, n, 1, nil)
	if a.WaitingOnNtfn != nil {
		t.Error("first waiter not woken first")
	}
	if b.WaitingOnNtfn != n {
		t.Error("second waiter disturbed")
	}
	Signal(e, n, 2, nil)
	if b.WaitingOnNtfn != nil {
		t.Error("second waiter not woken by second signal")
	}
}

func TestPoll(t *testing.T) {
	e, _ := testEnv()
	n := mkNtfn()
	w := mkThread("w", 100)
	if Poll(e, w, n) {
		t.Error("poll on empty notification succeeded")
	}
	Signal(e, n, 9, nil)
	if !Poll(e, w, n) {
		t.Error("poll missed the pending signal")
	}
	if w.SendBadge != 9 || n.Pending != 0 {
		t.Error("poll did not consume the word")
	}
}
