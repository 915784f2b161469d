package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"verikern/internal/chaos"
	"verikern/internal/kernel"
	"verikern/internal/obs"
	"verikern/internal/soak"
)

// fleetSpec is the test campaign: the modern kernel, multi-shard.
func fleetSpec(ops uint64, workers int) Spec {
	kcfg := kernel.Modern()
	kcfg.CheckInvariants = false
	return Spec{
		Label:   "fleet-test",
		Seed:    42,
		Ops:     ops,
		Workers: workers,
		Kernel:  kcfg,
	}
}

// digestFleet runs a local fleet campaign and returns its equivalence
// digest plus the coordinator for further inspection.
func digestFleet(t *testing.T, cfg Config, opt LocalOptions) ([]byte, *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c, err := RunLocal(ctx, cfg, opt)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !c.Completed() {
		t.Fatalf("fleet did not complete: %+v", c.Status())
	}
	d, err := EquivalenceDigest(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

// digestSingle runs the same campaign as a single-process N-worker
// soak and returns its equivalence digest.
func digestSingle(t *testing.T, sp Spec) []byte {
	t.Helper()
	rep, err := soak.Run(context.Background(), sp.SoakConfig())
	if err != nil {
		t.Fatalf("single-process soak: %v", err)
	}
	d, err := EquivalenceDigest(rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFleetEquivalence is the keystone: an N-worker fleet — sharded
// over the wire protocol, streamed as deltas, merged by the
// coordinator — produces a snapshot byte-identical to a single-process
// N-worker soak at the same seed.
func TestFleetEquivalence(t *testing.T) {
	sp := fleetSpec(3000, 3)
	fleet, c := digestFleet(t, Config{Spec: sp, BatchOps: 257}, LocalOptions{})
	single := digestSingle(t, sp)
	if !bytes.Equal(fleet, single) {
		t.Errorf("fleet snapshot diverges from single-process soak:\n--- fleet ---\n%s\n--- single ---\n%s", fleet, single)
	}
	st := c.Status()
	if st.Restarts != 0 {
		t.Errorf("clean campaign counted %d restarts", st.Restarts)
	}
	if st.Dropped != 0 {
		t.Errorf("clean campaign dropped %d batches", st.Dropped)
	}
	if st.MergedOps != sp.Ops {
		t.Errorf("merged %d ops, want %d", st.MergedOps, sp.Ops)
	}
	if st.Batches == 0 {
		t.Error("no batches counted")
	}
}

// TestEquivalenceDigests: the shared verdict soaks the coordinator's
// resolved spec, whose bound is already analysed; that soak must
// digest the same as one of the caller's unresolved spec, and the
// fleet's merge must match it.
func TestEquivalenceDigests(t *testing.T) {
	sp := fleetSpec(1500, 2)
	_, c := digestFleet(t, Config{Spec: sp, BatchOps: 199}, LocalOptions{})
	fleet, single, err := EquivalenceDigests(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleet, single) {
		t.Errorf("fleet snapshot diverges from the resolved spec's soak:\n--- fleet ---\n%s\n--- single ---\n%s", fleet, single)
	}
	if !bytes.Equal(single, digestSingle(t, sp)) {
		t.Error("soaking the resolved spec digests differently from soaking the input spec")
	}
}

// TestEquivalenceDigestKeepsUint64Precision: seeds one apart above
// 2^53 are distinct as float64s only by luck, so the digest must keep
// every number's digits rather than round-trip them through float64.
func TestEquivalenceDigestKeepsUint64Precision(t *testing.T) {
	digest := func(seed uint64) []byte {
		s := obs.NewSnapshot()
		s.Seed = seed
		d, err := EquivalenceDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := digest(1<<53), digest(1<<53+1)
	if bytes.Equal(a, b) {
		t.Fatalf("seeds 2^53 and 2^53+1 digest equal:\n%s", a)
	}
	if !bytes.Contains(b, []byte(`"seed": 9007199254740993`)) {
		t.Errorf("digest lost the seed's digits:\n%s", b)
	}
}

// strikeCases is the one table both chaos-kill entry points run:
// kills is the budget asked for and strikes the kills that must land.
// A strike severs a worker's connection just after its first batch,
// when that batch is not its last, so a shard that streams in one
// batch is never struck.
var strikeCases = []struct {
	name     string
	ops      uint64
	batchOps int
	kills    int
	strikes  int
}{
	{"multi-batch-shards", 6000, 251, 2, 2},
	{"one-batch-shards", 1500, 0, 1, 0}, // 500-op shards, default 512-op batches
}

// TestFleetKillRestartEquivalence strikes workers mid-campaign through
// LocalOptions.ChaosKills: the shard's next lease must fast-forward to
// the merged checkpoint and resume streaming with no lost and no
// double-counted samples, so the merge still matches the
// single-process soak byte for byte, with one restart per strike.
func TestFleetKillRestartEquivalence(t *testing.T) { testStrikes(t, false) }

// TestKillAfterFirstBatch runs strikeCases with KillAfterFirstBatch
// installed directly through Config.WrapConn, its claim granting the
// first kills strikes; the checks are TestFleetKillRestartEquivalence's.
func TestKillAfterFirstBatch(t *testing.T) { testStrikes(t, true) }

func testStrikes(t *testing.T, wrapConn bool) {
	for _, tc := range strikeCases {
		t.Run(tc.name, func(t *testing.T) {
			sp := fleetSpec(tc.ops, 3)
			var mu sync.Mutex
			var pids []int // the pid of every granted strike
			cfg := Config{Spec: sp, BatchOps: tc.batchOps}
			var opt LocalOptions
			if wrapConn {
				claim := func(pid int) bool {
					mu.Lock()
					defer mu.Unlock()
					if len(pids) == tc.kills {
						return false
					}
					pids = append(pids, pid)
					return true
				}
				cfg.WrapConn = func(rwc io.ReadWriteCloser) io.ReadWriteCloser { return KillAfterFirstBatch(rwc, claim) }
			} else {
				opt.ChaosKills = tc.kills
				cfg.Logf = func(format string, args ...any) {
					if strings.HasPrefix(format, "fleet: chaos kill ") {
						mu.Lock()
						pids = append(pids, args[2].(int))
						mu.Unlock()
					}
				}
			}
			fleet, c := digestFleet(t, cfg, opt)
			if single := digestSingle(t, sp); !bytes.Equal(fleet, single) {
				t.Errorf("struck fleet snapshot diverges from single-process soak:\n--- fleet ---\n%s\n--- single ---\n%s", fleet, single)
			}
			st := c.Status()
			if st.Restarts != uint64(tc.strikes) {
				t.Errorf("%d restarts, want %d", st.Restarts, tc.strikes)
			}
			var restarts int
			for _, sh := range st.Shards {
				restarts += sh.Restarts
			}
			if uint64(restarts) != st.Restarts {
				t.Errorf("per-shard restarts sum %d != aggregate %d", restarts, st.Restarts)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(pids) != tc.strikes {
				t.Errorf("%d strikes (pids %v), want %d", len(pids), pids, tc.strikes)
			}
			for _, pid := range pids {
				if pid != os.Getpid() {
					t.Errorf("strike named pid %d, want the workers' pid %d", pid, os.Getpid())
				}
			}
		})
	}
}

// holdRelease delays the read error a chaos strike returns, holding
// back the struck lease's release.
type holdRelease struct {
	io.ReadWriteCloser
}

func (h holdRelease) Read(p []byte) (int, error) {
	n, err := h.ReadWriteCloser.Read(p)
	if errors.Is(err, errChaosKilled) {
		time.Sleep(100 * time.Millisecond)
	}
	return n, err
}

// TestFleetRespawnAfterDrain holds a struck lease's release back for
// longer than the struck worker's reconnect backoff, so its redial
// finds no shard free and is drained: RunWorkerLoop returns, and only
// the slot's respawn loop brings the worker back to take the released
// shard. The campaign must still complete, equal to the single-process
// soak, with the one restart the strike cost.
func TestFleetRespawnAfterDrain(t *testing.T) {
	sp := fleetSpec(4000, 3) // 1333-op shards, 512-op batches
	var mu sync.Mutex
	var respawns, drains int
	cfg := Config{
		Spec: sp,
		WrapConn: func(rwc io.ReadWriteCloser) io.ReadWriteCloser {
			return holdRelease{rwc}
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case strings.HasPrefix(format, "fleet: worker slot "):
				respawns++
			case strings.HasPrefix(format, "fleet worker: no shard available"):
				drains++
			}
		},
	}
	fleet, c := digestFleet(t, cfg.WithKills(1, nil), LocalOptions{})
	if single := digestSingle(t, sp); !bytes.Equal(fleet, single) {
		t.Errorf("respawned fleet snapshot diverges from single-process soak:\n--- fleet ---\n%s\n--- single ---\n%s", fleet, single)
	}
	st := c.Status()
	if st.Restarts != 1 {
		t.Errorf("%d restarts, want 1", st.Restarts)
	}
	if st.Retries < 1 {
		t.Errorf("%d retries reported, want the struck worker's reconnect", st.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if drains == 0 || respawns == 0 {
		t.Errorf("%d drained redials, %d respawns: the struck worker's redial was not drained and respawned", drains, respawns)
	}
}

// TestRunLocalCancel: a campaign whose ctx ends first returns ctx's
// error with the coordinator stopped and incomplete, and leaves no
// goroutine behind — including under transport chaos with frame
// deadlines off, where only severing the pipes unblocks a read.
func TestRunLocalCancel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chaos bool
	}{
		{"plain", false},
		{"chaos-no-deadlines", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := fleetSpec(50_000_000, 2)
			sp.BoundCycles = 142_957
			cfg := Config{Spec: sp}
			if tc.chaos {
				ccfg := chaos.Aggressive(7)
				ccfg.Stall = 50 * time.Millisecond
				cfg = ChaosConfig(sp, chaos.New(ccfg).Wrap)
				cfg.FrameTimeout = -1
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			c, err := RunLocal(ctx, cfg, LocalOptions{ChaosKills: 1})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("RunLocal returned %v, want the ctx's deadline error", err)
			}
			c.mu.Lock()
			stopped := c.stopped
			c.mu.Unlock()
			if !stopped || c.Completed() {
				t.Errorf("coordinator stopped %v, completed %v; want stopped and incomplete", stopped, c.Completed())
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after RunLocal returned, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestCheckKills: a kill budget is refused exactly when the smallest
// shard streams in one batch, and the refusal names both sizes.
func TestCheckKills(t *testing.T) {
	for _, tc := range []struct {
		ops      uint64
		workers  int
		batchOps int
		refused  string // "" when the kills can land
	}{
		{1500, 3, 0, "a 500-op shard streams in one 512-op batch"},
		{1538, 3, 0, "a 512-op shard streams in one 512-op batch"},
		{1539, 3, 0, ""},
		{1540, 3, 0, ""},
		{453, 3, 151, "a 151-op shard streams in one 151-op batch"},
		{456, 3, 151, ""},
	} {
		cfg := Config{Spec: fleetSpec(tc.ops, tc.workers), BatchOps: tc.batchOps}
		if err := CheckKills(cfg, 0); err != nil {
			t.Errorf("%d ops: zero kills refused: %v", tc.ops, err)
		}
		err := CheckKills(cfg, 1)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%d ops over %d workers, batch %d: refused: %v", tc.ops, tc.workers, tc.batchOps, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%d ops over %d workers, batch %d: got %v, want an error saying %q", tc.ops, tc.workers, tc.batchOps, err, tc.refused)
		}
	}
}

// dialHello opens a raw protocol connection to a coordinator and
// completes the hello, returning the client end and the assign (nil
// payload if the coordinator drained us).
func dialHello(t *testing.T, c *Coordinator) (net.Conn, *Assign) {
	t.Helper()
	server, client := net.Pipe()
	go c.ServeConn(server)
	if err := writeMsg(client, msgHello, Hello{Proto: protoVersion, PID: 99}); err != nil {
		t.Fatal(err)
	}
	mt, body, err := readMsg(client)
	if err != nil {
		t.Fatal(err)
	}
	switch mt {
	case msgDrain:
		return client, nil
	case msgAssign:
		var as Assign
		if err := json.Unmarshal(body, &as); err != nil {
			t.Fatal(err)
		}
		return client, &as
	default:
		t.Fatalf("unexpected reply type %d", mt)
		return nil, nil
	}
}

// waitCounter polls the /fleet.json field named key (a Status
// counter) until it reaches want.
func waitCounter(t *testing.T, c *Coordinator, key string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := json.Marshal(c.Status())
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(b, &fields); err != nil {
			t.Fatal(err)
		}
		n, ok := fields[key].(float64)
		if !ok {
			t.Fatalf("status has no counter %q", key)
		}
		if uint64(n) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %d (status: %s)", key, want, b)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetStaleBatchDropped checks the admission gate: batches that
// do not continue the merged prefix, come from a connection that does
// not own the shard, run past the shard's budget, name an
// out-of-range source op or an unknown event kind are counted in
// Status.Dropped and change nothing.
func TestFleetStaleBatchDropped(t *testing.T) {
	ctx := context.Background()
	sp := fleetSpec(2000, 2)
	sp.BoundCycles = 142_957 // skip analysis; the gate is the subject
	c, err := New(ctx, Config{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	client, as := dialHello(t, c)
	defer client.Close()
	if as == nil {
		t.Fatal("no shard leased")
	}
	if as.Shard != 0 || as.Checkpoint != 0 || as.Budget != 1000 {
		t.Fatalf("unexpected lease: %+v", as)
	}

	var h obs.Histogram
	h.Record(900)
	ok := Batch{Shard: 0, FromOps: 0, ToOps: 7}
	var checkpoint, dropped, batches uint64
	for _, in := range []struct {
		name  string
		b     Batch
		merge bool
	}{
		{"not contiguous with the checkpoint", Batch{Shard: 0, FromOps: 5, ToOps: 10}, false},
		{"a shard this connection does not own", Batch{Shard: 1, FromOps: 0, ToOps: 5}, false},
		{"contiguous and empty", ok, true},
		{"a replay of the merged window", ok, false},
		{"past the shard's budget", Batch{Shard: 0, FromOps: 7, ToOps: 5000}, false},
		{"an out-of-range source op", Batch{Shard: 0, FromOps: 7, ToOps: 9, Sources: []SourceDelta{
			{Op: 1, Hist: h.State()},
			{Op: uint8(obs.NumOps), Hist: h.State()},
		}}, false},
		{"an unknown event kind", Batch{Shard: 0, FromOps: 7, ToOps: 9, EventCounts: map[string]uint64{
			"irq-service": 1,
			"bogus":       1,
		}}, false},
	} {
		if err := writeMsg(client, msgBatch, in.b); err != nil {
			t.Fatal(err)
		}
		if in.merge {
			batches++
			checkpoint = in.b.ToOps
			waitCounter(t, c, "batches", batches)
		} else {
			dropped++
			waitCounter(t, c, "dropped", dropped)
		}
		st := c.Status()
		if st.Batches != batches || st.Dropped != dropped {
			t.Errorf("%s: %d merged and %d dropped, want %d and %d", in.name, st.Batches, st.Dropped, batches, dropped)
		}
		if st.Shards[0].Checkpoint != checkpoint || st.Samples != 0 {
			t.Errorf("%s: checkpoint %d and %d samples, want %d and 0", in.name, st.Shards[0].Checkpoint, st.Samples, checkpoint)
		}
		if s := c.Snapshot(); s.IRQ.Count != 0 || len(s.EventCounts) != 0 {
			t.Errorf("%s: snapshot holds %d samples and events %v, want none", in.name, s.IRQ.Count, s.EventCounts)
		}
	}
}

// keepOpen is a connection whose Close is a no-op, so Stop cannot
// sever it and the test decides when the coordinator's reader sees EOF.
type keepOpen struct{ io.ReadWriteCloser }

func (keepOpen) Close() error { return nil }

// TestStopFreezesAggregate checks that Stop freezes the merge: a batch
// the coordinator reads after Stop returns is not merged, and neither
// the snapshot nor the transport counters move.
func TestStopFreezesAggregate(t *testing.T) {
	sp := fleetSpec(2000, 1)
	sp.BoundCycles = 142_957
	c, err := New(context.Background(), Config{
		Spec:         sp,
		LeaseTimeout: -1,
		WrapConn:     func(rw io.ReadWriteCloser) io.ReadWriteCloser { return keepOpen{rw} },
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c.ServeConn(server)
	}()
	if err := writeMsg(client, msgHello, Hello{Proto: protoVersion, PID: 99}); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := readMsg(client); err != nil || mt != msgAssign {
		t.Fatalf("lease: type %d, err %v", mt, err)
	}
	var h obs.Histogram
	h.Record(900)
	batch := func(from, to uint64) Batch {
		return Batch{Shard: 0, FromOps: from, ToOps: to, SimCycles: to * 100, Emitted: 3,
			EventCounts: map[string]uint64{"irq-raise": 1},
			Sources:     []SourceDelta{{Op: 1, Hist: h.State()}}}
	}
	if err := writeMsg(client, msgBatch, batch(0, 10)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, c, "batches", 1)
	c.Stop()
	var before bytes.Buffer
	if err := c.Snapshot().WriteJSON(&before); err != nil {
		t.Fatal(err)
	}

	// This batch continues the merged prefix on the owning connection:
	// only the stop keeps it out of the aggregate.
	if err := writeMsg(client, msgBatch, batch(10, 20)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-served // ServeConn returns only after handling every batch it read
	var after bytes.Buffer
	if err := c.Snapshot().WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("snapshot changed after Stop:\nbefore %s\nafter  %s", before.Bytes(), after.Bytes())
	}
	if st := c.Status(); st.Batches != 1 || st.Dropped != 0 || st.Shards[0].Checkpoint != 10 {
		t.Errorf("after Stop: %d merged, %d dropped, checkpoint %d; want 1, 0, 10", st.Batches, st.Dropped, st.Shards[0].Checkpoint)
	}
}

// TestFleetDrain checks graceful drain: workers flush and exit, the
// partial merge is preserved, nothing is dropped, and no new shard
// leases are granted afterwards.
func TestFleetDrain(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sp := fleetSpec(200_000, 1)
	sp.BoundCycles = 142_957
	c, err := New(ctx, Config{Spec: sp, BatchOps: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	server, client := net.Pipe()
	go c.ServeConn(server)
	workerDone := make(chan error, 1)
	go func() { workerDone <- RunWorker(ctx, client, WorkerOptions{}) }()

	deadline := time.Now().Add(30 * time.Second)
	for c.Status().MergedOps == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if c.Status().MergedOps == 0 {
		t.Fatal("no progress before drain")
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-workerDone; err != nil {
		t.Errorf("worker exited with error after drain: %v", err)
	}
	st := c.Status()
	if st.Completed {
		t.Error("drained campaign reports completed")
	}
	if st.MergedOps == 0 || st.MergedOps >= sp.Ops {
		t.Errorf("merged ops %d after drain", st.MergedOps)
	}
	if st.Dropped != 0 {
		t.Errorf("drain dropped %d batches", st.Dropped)
	}
	// A fresh hello while draining gets no lease.
	client2, as := dialHello(t, c)
	defer client2.Close()
	if as != nil {
		t.Errorf("draining coordinator leased shard %d", as.Shard)
	}
}

// TestFleetStateResume checks the coordinator's checkpoint file: a
// second coordinator over the same StatePath resumes the campaign
// where the first left off instead of redoing merged ops, and a
// different campaign is rejected.
func TestFleetStateResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	statePath := filepath.Join(t.TempDir(), "fleet-state.json")
	sp := fleetSpec(2000, 2)
	sp.BoundCycles = 142_957

	// Campaign leg 1: complete shard 0 only.
	c1, err := New(ctx, Config{Spec: sp, StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go c1.ServeConn(server)
	if err := RunWorker(ctx, client, WorkerOptions{}); err != nil {
		t.Fatalf("leg-1 worker: %v", err)
	}
	// The worker returns once the pipe has handed over its final
	// batch, which the connection goroutine may still be merging;
	// wait for the shard to complete.
	deadline := time.Now().Add(10 * time.Second)
	for !c1.Status().Shards[0].Completed && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	st := c1.Status()
	if !st.Shards[0].Completed || st.Shards[1].Checkpoint != 0 {
		t.Fatalf("leg 1 state unexpected: %+v", st.Shards)
	}
	c1.Stop()

	// The atomic temp+rename must not tighten the published file's
	// permissions to CreateTemp's 0600 — external tooling reads it.
	if fi, err := os.Stat(statePath); err != nil {
		t.Fatal(err)
	} else if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("state file mode %o, want 644", perm)
	}

	// A different campaign over the same state file must be refused.
	other := sp
	other.Seed = 7
	if _, err := New(ctx, Config{Spec: other, StatePath: statePath}); err == nil {
		t.Error("foreign campaign accepted a mismatched state file")
	}

	// Campaign leg 2: resumes; only shard 1 is leased.
	c2, err := New(ctx, Config{Spec: sp, StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	st = c2.Status()
	if !st.Shards[0].Completed || st.MergedOps != soak.ShardBudget(sp.Ops, 2, 0) {
		t.Fatalf("leg 2 did not resume: %+v", st.Shards)
	}
	server2, client2 := net.Pipe()
	go c2.ServeConn(server2)
	done2 := make(chan error, 1)
	go func() { done2 <- RunWorker(ctx, client2, WorkerOptions{}) }()
	select {
	case <-c2.Done():
	case <-ctx.Done():
		t.Fatal("leg 2 never completed")
	}
	if err := <-done2; err != nil {
		t.Fatalf("leg-2 worker: %v", err)
	}
	st = c2.Status()
	if st.MergedOps != sp.Ops || st.Restarts != 0 {
		t.Errorf("leg 2 final state: merged %d restarts %d", st.MergedOps, st.Restarts)
	}
	// The leg-2 aggregate covers only shard 1's window by design
	// (checkpoints persist; histograms do not).
	if got := c2.Snapshot().Ops; got != sp.Ops {
		t.Errorf("resumed snapshot ops %d, want %d", got, sp.Ops)
	}
}

// slowWriteConn throttles writes so a worker session's wall time
// deterministically exceeds the worker frame timeout while every
// individual frame still lands well inside its own deadline. Deadline
// methods pass through to the embedded net.Pipe conn.
type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (s *slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.Conn.Write(p)
}

// TestWorkerSessionOutlastsFrameTimeout is the regression test for the
// stale-deadline bug: the absolute read deadline armed for the assign
// read must be cleared before the drain watcher takes over the read
// side, because the coordinator legitimately sends nothing between
// assign and drain — left armed, it fired FrameTimeout after hello,
// closed lostCh, and killed every healthy session whose campaign
// outlasted the timeout (each reconnect then re-fast-forwarded from
// the checkpoint, stalling the shard forever once fast-forward alone
// exceeded the timeout).
func TestWorkerSessionOutlastsFrameTimeout(t *testing.T) {
	sp := fleetSpec(2000, 1)
	sp.BoundCycles = 142_957
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := New(ctx, Config{Spec: sp, BatchOps: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	server, client := net.Pipe()
	go c.ServeConn(server)
	// 20 batches × 8ms write throttle ≥ 160ms of session, far past the
	// 60ms frame timeout; each individual frame stays well within it.
	err = RunWorker(ctx, &slowWriteConn{Conn: client, delay: 8 * time.Millisecond},
		WorkerOptions{FrameTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatalf("healthy session outlasting FrameTimeout failed: %v", err)
	}
	select {
	case <-c.Done():
	case <-ctx.Done():
		t.Fatal("campaign never completed")
	}
	st := c.Status()
	if st.Restarts != 0 {
		t.Errorf("healthy session counted %d restarts", st.Restarts)
	}
	fleet, err := EquivalenceDigest(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if single := digestSingle(t, sp); !bytes.Equal(fleet, single) {
		t.Errorf("deadline-armed fleet snapshot diverges from single-process soak")
	}
}

// TestFleetProtocolMismatch checks a worker speaking the wrong
// protocol version is refused without a lease.
func TestFleetProtocolMismatch(t *testing.T) {
	sp := fleetSpec(1000, 1)
	sp.BoundCycles = 142_957
	c, err := New(context.Background(), Config{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	server, client := net.Pipe()
	go c.ServeConn(server)
	if err := writeMsg(client, msgHello, Hello{Proto: protoVersion + 1, PID: 1}); err != nil {
		t.Fatal(err)
	}
	mt, _, err := readMsg(client)
	if err != nil {
		t.Fatal(err)
	}
	if mt != msgDrain {
		t.Errorf("mismatched worker got message type %d, want drain", mt)
	}
	if st := c.Status(); st.Shards[0].Attached {
		t.Error("mismatched worker holds a lease")
	}
}

// TestWireRoundTrip pins the framing: length prefix, type byte, JSON
// payload, and the oversize/corrupt-length guards.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Assign{Shard: 3, Checkpoint: 100, Budget: 500, BatchOps: 64, Spec: fleetSpec(500, 4)}
	if err := writeMsg(&buf, msgAssign, in); err != nil {
		t.Fatal(err)
	}
	mt, body, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != msgAssign {
		t.Fatalf("type %d", mt)
	}
	var out Assign
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Shard != in.Shard || out.Budget != in.Budget || out.Spec.Seed != in.Spec.Seed {
		t.Errorf("round trip: %+v", out)
	}
	// A nil-payload frame (drain) reads back empty.
	buf.Reset()
	if err := writeMsg(&buf, msgDrain, nil); err != nil {
		t.Fatal(err)
	}
	mt, body, err = readMsg(&buf)
	if err != nil || mt != msgDrain || len(body) != 0 {
		t.Errorf("drain frame: type %d body %d err %v", mt, len(body), err)
	}
	// A corrupt length prefix is rejected before allocation.
	if _, _, err := readMsg(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0})); err == nil {
		t.Error("oversized frame length accepted")
	}
	if _, _, err := readMsg(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero frame length accepted")
	}
}
