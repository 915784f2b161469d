package kernel

import (
	"testing"

	"verikern/internal/kobj"
)

// Error-path coverage: every system call must reject malformed
// requests cleanly, leave the kernel consistent, and still charge the
// failed kernel round trip.

func TestDecodeFailureChargesRoundTrip(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	before := k.Now()
	if err := k.Send(a, 0xDEAD, 1, nil, false); err == nil {
		t.Fatal("send through empty slot succeeded")
	}
	if k.Now() == before {
		t.Error("failed decode charged no cycles")
	}
	assertClean(t, k)
}

// TestTypeConfusedInvocations invokes every system call that works on
// one capability type through a cap of another type: each must fail
// before any cycle is charged or any counter moves.
func TestTypeConfusedInvocations(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	ep := mustEndpoint(t, k, a)
	create := func(ot kobj.ObjType, param uint8) uint32 {
		addrs, err := k.CreateObjects(a, ot, param, 1)
		if err != nil {
			t.Fatal(err)
		}
		return addrs[0]
	}
	ntfn := create(kobj.TypeNotification, 0)
	pd := create(kobj.TypePageDirectory, 0)
	pt := create(kobj.TypePageTable, 0)
	frame := create(kobj.TypeFrame, 12)
	// An address space, so the map calls can fail only on the type.
	if err := k.AssignVSpace(a, pd); err != nil {
		t.Fatal(err)
	}

	calls := []struct {
		name string
		call func() error
	}{
		{"MintBadgedCap", func() error { _, err := k.MintBadgedCap(a, ntfn, 1); return err }},
		{"Send", func() error { return k.Send(a, ntfn, 1, nil, false) }},
		{"Recv", func() error { return k.Recv(a, ntfn) }},
		{"ReplyRecv", func() error { return k.ReplyRecv(a, ntfn) }},
		{"RevokeBadge", func() error { return k.RevokeBadge(a, ntfn, 1) }},
		{"AssignVSpace", func() error { return k.AssignVSpace(a, pt) }},
		{"MapPageTable", func() error { return k.MapPageTable(a, frame, 64<<20) }},
		{"MapFrame", func() error { return k.MapFrame(a, pt, 64<<20) }},
		{"DeleteVSpace", func() error { return k.DeleteVSpace(a, ep) }},
		{"RegisterIRQHandler", func() error { return k.RegisterIRQHandler(a, ep) }},
		{"WaitIRQ", func() error { return k.WaitIRQ(a, ep) }},
		{"SignalCap", func() error { return k.SignalCap(a, ep) }},
		{"PollCap", func() error { _, err := k.PollCap(a, ep); return err }},
	}
	for _, c := range calls {
		clock, stats := k.Now(), k.Stats()
		if err := c.call(); err == nil {
			t.Errorf("%s on a wrong-type cap succeeded", c.name)
		}
		if k.Now() != clock {
			t.Errorf("%s on a wrong-type cap charged %d cycles", c.name, k.Now()-clock)
		}
		if k.Stats() != stats {
			t.Errorf("%s on a wrong-type cap moved the counters: %+v, was %+v", c.name, k.Stats(), stats)
		}
	}
	assertClean(t, k)
}

// TestSendMessageLength: Send refuses a negative length and one beyond
// kobj.MaxMsgWords, on the fastpath and the slowpath alike, before any
// cycle is charged and without touching the waiting receiver.
func TestSendMessageLength(t *testing.T) {
	for _, fastpath := range []bool{true, false} {
		for _, msgLen := range []int{-1, kobj.MaxMsgWords + 1, 1200} {
			cfg := Modern()
			cfg.Fastpath = fastpath
			k := boot(t, cfg)
			recv := mustThread(t, k, "recv", 150)
			send := mustThread(t, k, "send", 100)
			ep := mustEndpoint(t, k, send)
			if err := k.Recv(recv, ep); err != nil {
				t.Fatal(err)
			}
			clock, got := k.Now(), recv.MsgLen
			if err := k.Send(send, ep, msgLen, nil, false); err == nil {
				t.Errorf("fastpath=%v: send of %d words succeeded", fastpath, msgLen)
			}
			if k.Now() != clock {
				t.Errorf("fastpath=%v: send of %d words moved the clock by %d", fastpath, msgLen, int64(k.Now()-clock))
			}
			if recv.MsgLen != got {
				t.Errorf("fastpath=%v: send of %d words set the receiver's MsgLen to %d", fastpath, msgLen, recv.MsgLen)
			}
			// A full-length message still goes through.
			if err := k.Send(send, ep, kobj.MaxMsgWords, nil, false); err != nil {
				t.Errorf("fastpath=%v: send of %d words: %v", fastpath, kobj.MaxMsgWords, err)
			}
			if recv.MsgLen != kobj.MaxMsgWords {
				t.Errorf("fastpath=%v: receiver read %d words, want %d", fastpath, recv.MsgLen, kobj.MaxMsgWords)
			}
			assertClean(t, k)
		}
	}
}

func TestSendWithBadTransferCap(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	ep := mustEndpoint(t, k, a)
	if err := k.Send(a, ep, 1, []uint32{0xBEEF}, false); err == nil {
		t.Error("send transferring an unresolvable cap succeeded")
	}
	assertClean(t, k)
}

func TestCreateObjectsInvalidParams(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	if _, err := k.CreateObjects(a, kobj.TypeFrame, 2, 1); err == nil {
		t.Error("invalid frame size accepted")
	}
	if _, err := k.CreateObjects(a, kobj.TypeEndpoint, 0, 0); err == nil {
		t.Error("zero count accepted")
	}
	assertClean(t, k)
}

func TestCreateObjectsExhaustion(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	// The boot untyped is 64 MiB; four 16 MiB frames exhaust it
	// (some is used by boot structures, so the fourth fails).
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		_, err = k.CreateObjects(a, kobj.TypeFrame, 24, 1)
	}
	if err == nil {
		t.Error("untyped exhaustion never reported")
	}
	assertClean(t, k)
}

func TestMapFrameWithoutVSpace(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	fr, err := k.CreateObjects(a, kobj.TypeFrame, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MapFrame(a, fr[0], 64<<20); err == nil {
		t.Error("frame map without an assigned vspace succeeded")
	}
	assertClean(t, k)
}

func TestDeleteCapNonFinalKeepsObject(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	ep := mustEndpoint(t, k, a)
	cp, err := k.CopyCap(a, ep, kobj.RightsAll)
	if err != nil {
		t.Fatal(err)
	}
	epSlot, _, _ := k.decodeCap(a, ep)
	obj := epSlot.Cap.Endpoint()
	// Delete the copy: the object must survive (not final).
	if err := k.DeleteCap(a, cp); err != nil {
		t.Fatal(err)
	}
	if obj.Destroyed {
		t.Error("object destroyed while a cap remains")
	}
	// Delete the final cap: now it goes.
	if err := k.DeleteCap(a, ep); err != nil {
		t.Fatal(err)
	}
	if !obj.Destroyed {
		t.Error("final delete did not destroy the object")
	}
	assertClean(t, k)
}

func TestDeleteCapEmptySlotIdempotent(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	ep := mustEndpoint(t, k, a)
	if err := k.DeleteCap(a, ep); err != nil {
		t.Fatal(err)
	}
	// Deleting again resolves to an empty slot — an error from the
	// decode layer, not a crash.
	if err := k.DeleteCap(a, ep); err == nil {
		t.Error("second delete of the same cap address succeeded")
	}
	assertClean(t, k)
}

func TestCopyMoveErrorPaths(t *testing.T) {
	k := boot(t, Modern())
	a := mustThread(t, k, "a", 100)
	if _, err := k.CopyCap(a, 0x7777, kobj.RightsAll); err == nil {
		t.Error("copy from unresolvable address succeeded")
	}
	if _, err := k.MoveCap(a, 0x7777); err == nil {
		t.Error("move from unresolvable address succeeded")
	}
}
