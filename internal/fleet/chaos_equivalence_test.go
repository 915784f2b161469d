package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"verikern/internal/chaos"
)

// chaosFleetConfig is the shipped chaos profile (ChaosConfig) with
// shorter lease and frame timeouts, so the campaigns' injected stalls
// are reclaimed quickly enough for a test.
func chaosFleetConfig(sp Spec, eng *chaos.Engine) Config {
	cfg := ChaosConfig(sp, eng.Wrap)
	cfg.LeaseTimeout = 400 * time.Millisecond
	cfg.FrameTimeout = 250 * time.Millisecond
	return cfg
}

// TestChaosEquivalence is the keystone robustness proof: full fleet
// campaigns under seeded fault injection — bit flips, truncation,
// duplication, delays, resets, stalls on every coordinator-side read
// and write — still merge to an EquivalenceDigest byte-identical to
// the fault-free single-process soak. Eight distinct chaos seeds
// alternate across both backends; corrupt frames must be detected
// (never merged), reclaimed shards must complete via re-lease, and the
// transport counters must show the fault model actually fired.
func TestChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns are second-scale; skipped in -short")
	}
	archs := []string{"arm1136", "cva6rt"}
	singles := make(map[string][]byte)
	faultKinds := make(map[string]bool)
	var totalFaults, totalCorrupt, totalRestarts, totalReleases, totalRetries uint64

	for i := 0; i < 9; i++ {
		seed := uint64(101 + i)
		arch := archs[i%len(archs)]
		// The last campaign disables frame deadlines so stalls can only
		// be recovered by the lease-timeout reaper — the re-lease path
		// under chaos rather than in isolation.
		reaperOnly := i == 8
		name := fmt.Sprintf("seed=%d/%s", seed, arch)
		if reaperOnly {
			name += "/reaper"
		}
		t.Run(name, func(t *testing.T) {
			sp := fleetSpec(1800, 3)
			sp.Arch = arch
			ccfg := chaos.Aggressive(seed)
			ccfg.Delay = time.Millisecond
			ccfg.Stall = 300 * time.Millisecond
			cfg := Config{}
			if reaperOnly {
				ccfg.StallPer65536 = 2500
				ccfg.Stall = 500 * time.Millisecond
			}
			eng := chaos.New(ccfg)
			cfg = chaosFleetConfig(sp, eng)
			if reaperOnly {
				cfg.FrameTimeout = -1
				cfg.LeaseTimeout = 200 * time.Millisecond
			}
			fleet, c := digestFleet(t, cfg, LocalOptions{})
			single, ok := singles[arch]
			if !ok {
				single = digestSingle(t, sp)
				singles[arch] = single
			}
			if !bytes.Equal(fleet, single) {
				t.Errorf("chaos fleet digest diverges from fault-free single-process soak:\n--- fleet ---\n%s\n--- single ---\n%s", fleet, single)
			}
			st := c.Status()
			if st.MergedOps != sp.Ops {
				t.Errorf("merged %d ops, want %d", st.MergedOps, sp.Ops)
			}
			for _, sh := range st.Shards {
				if !sh.Completed {
					t.Errorf("shard %d did not complete (checkpoint %d/%d, releases %d)", sh.Shard, sh.Checkpoint, sh.Budget, sh.Releases)
				}
			}
			if eng.Injected() == 0 {
				t.Error("chaos engine injected no faults — the campaign was not adversarial")
			}
			for kind, n := range eng.Faults() {
				if n > 0 {
					faultKinds[kind] = true
				}
			}
			totalFaults += uint64(eng.Injected())
			totalCorrupt += st.FramesCorrupt
			totalRestarts += st.Restarts
			totalReleases += st.Releases
			totalRetries += st.Retries
			t.Logf("seed %d/%s: %d faults %v, frames_corrupt %d, restarts %d, releases %d, retries %d, recoveries %d (p99 %.1fms)",
				seed, arch, eng.Injected(), eng.Faults(), st.FramesCorrupt, st.Restarts, st.Releases, st.Retries, st.Recoveries, st.RecoveryP99MS)
		})
	}

	// Across eight aggressive campaigns the fault model must have
	// exercised the recovery machinery end to end, not just grazed it.
	if totalCorrupt == 0 {
		t.Error("no corrupt frames detected across any chaos campaign — CRC path unexercised")
	}
	if totalRestarts == 0 {
		t.Error("no restarts across any chaos campaign — recovery path unexercised")
	}
	if len(faultKinds) < 4 {
		t.Errorf("only %d fault kinds fired across all campaigns (%v), want ≥ 4", len(faultKinds), faultKinds)
	}
	t.Logf("aggregate: %d faults, %d corrupt frames, %d restarts, %d lease releases, %d retries", totalFaults, totalCorrupt, totalRestarts, totalReleases, totalRetries)
}

// TestFleetLeaseTimeout checks the reaper: a leased shard whose worker
// goes silent is reclaimed after LeaseTimeout, counted in
// Status.Releases, and immediately re-leasable — with the recovery
// latency recorded.
func TestFleetLeaseTimeout(t *testing.T) {
	sp := fleetSpec(1000, 1)
	sp.BoundCycles = 142_957 // skip analysis; the reaper is the subject
	c, err := New(context.Background(), Config{
		Spec:         sp,
		LeaseTimeout: 120 * time.Millisecond,
		FrameTimeout: -1, // isolate the reaper from the frame deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	silent, as := dialHello(t, c)
	defer silent.Close()
	if as == nil {
		t.Fatal("no shard leased")
	}
	// The worker never streams a batch: the reaper must reclaim.
	waitCounter(t, c, "releases", 1)
	waitCounter(t, c, "restarts", 1)

	successor, as2 := dialHello(t, c)
	defer successor.Close()
	if as2 == nil {
		t.Fatal("reclaimed shard was not re-leased")
	}
	if as2.Shard != 0 || as2.Checkpoint != 0 {
		t.Fatalf("unexpected successor lease: %+v", as2)
	}
	if err := writeMsg(successor, msgBatch, Batch{Shard: 0, FromOps: 0, ToOps: 7}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, c, "batches", 1)

	st := c.Status()
	if st.Releases != 1 {
		t.Errorf("releases = %d, want 1", st.Releases)
	}
	if st.Shards[0].Releases != 1 {
		t.Errorf("shard releases = %d, want 1", st.Shards[0].Releases)
	}
	if st.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries)
	}
	if st.RecoveryP99MS <= 0 {
		t.Errorf("recovery p99 = %v, want > 0", st.RecoveryP99MS)
	}
}

// TestFleetQuarantine checks the poisoned-connection cutoff: corrupt
// frames are counted (and never merged), a well-formed frame resets
// the strike count, and QuarantineAfter consecutive strikes sever the
// connection.
func TestFleetQuarantine(t *testing.T) {
	sp := fleetSpec(1000, 1)
	sp.BoundCycles = 142_957
	c, err := New(context.Background(), Config{
		Spec:            sp,
		QuarantineAfter: 3,
		LeaseTimeout:    -1,
		FrameTimeout:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	client, as := dialHello(t, c)
	defer client.Close()
	if as == nil {
		t.Fatal("no shard leased")
	}

	// A valid batch frame with one payload bit flipped: CRC catches it.
	corrupt := encodeFrame(t, msgBatch, Batch{Shard: 0, FromOps: 0, ToOps: 7})
	corrupt[6] ^= 0x04

	// Two strikes, then a clean batch: the strike count must reset.
	for i := 0; i < 2; i++ {
		if _, err := client.Write(corrupt); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, c, "frames_corrupt", 2)
	if err := writeMsg(client, msgBatch, Batch{Shard: 0, FromOps: 0, ToOps: 7}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, c, "batches", 1)
	if got := c.Status().Quarantined; got != 0 {
		t.Fatalf("quarantined after a reset strike count: %d", got)
	}

	// Three consecutive strikes now quarantine the connection.
	for i := 0; i < 3; i++ {
		if _, err := client.Write(corrupt); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, c, "frames_corrupt", 5)
	waitCounter(t, c, "quarantined", 1)
	waitCounter(t, c, "restarts", 1)

	st := c.Status()
	if st.Shards[0].Checkpoint != 7 {
		t.Errorf("checkpoint = %d, want 7 — corrupt frames must never merge", st.Shards[0].Checkpoint)
	}
	if st.Shards[0].Attached {
		t.Error("quarantined connection still attached")
	}
}

// TestFleetStateTornWrite is the torn-write regression test for the
// checkpoint store: a truncated or bit-flipped state file fails its
// checksum, is quarantined to <path>.corrupt, and the campaign
// regenerates from zero instead of resuming garbage — while an intact
// file still resumes.
func TestFleetStateTornWrite(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	statePath := filepath.Join(t.TempDir(), "fleet-state.json")
	sp := fleetSpec(600, 1)
	sp.BoundCycles = 142_957

	c, err := RunLocal(ctx, Config{Spec: sp, StatePath: statePath}, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if !c.Completed() {
		t.Fatal("leg 1 did not complete")
	}
	intact, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		corrupt bool
	}{
		{"torn write", func(b []byte) []byte { return b[:len(b)/2] }, true},
		{"bit flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/3] ^= 0x10
			return out
		}, true},
		{"intact", func(b []byte) []byte { return b }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			os.Remove(statePath + ".corrupt")
			if err := os.WriteFile(statePath, tc.mutate(intact), 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := New(ctx, Config{Spec: sp, StatePath: statePath})
			if err != nil {
				t.Fatalf("corrupt state must regenerate, not error: %v", err)
			}
			defer c2.Stop()
			st := c2.Status()
			if tc.corrupt {
				if st.Shards[0].Checkpoint != 0 {
					t.Errorf("resumed checkpoint %d from corrupt state, want fresh start", st.Shards[0].Checkpoint)
				}
				if _, err := os.Stat(statePath + ".corrupt"); err != nil {
					t.Errorf("corrupt state not quarantined: %v", err)
				}
			} else {
				if !st.Shards[0].Completed {
					t.Error("intact state did not resume the completed shard")
				}
			}
		})
	}
}

// TestFleetStateChaosResume drives the checkpoint store through the
// chaos engine's partial-write/corruption hook across several
// coordinator generations: whatever the store looks like at startup —
// clean, torn, or bit-rotted — every generation either resumes or
// regenerates, and the campaign always completes.
func TestFleetStateChaosResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	statePath := filepath.Join(t.TempDir(), "fleet-state.json")
	sp := fleetSpec(600, 2)
	sp.BoundCycles = 142_957

	stateFaults := 0
	for leg := 0; leg < 3; leg++ {
		eng := chaos.New(chaos.Config{Seed: uint64(7000 + leg), StatePer65536: 26000})
		c, err := RunLocal(ctx, Config{
			Spec:             sp,
			StatePath:        statePath,
			PersistTransform: eng.CorruptState,
		}, LocalOptions{})
		if err != nil {
			t.Fatalf("leg %d: %v", leg, err)
		}
		completed := c.Completed()
		c.Stop()
		if !completed {
			t.Fatalf("leg %d did not complete", leg)
		}
		stateFaults += eng.Injected()
	}
	if stateFaults == 0 {
		t.Error("no state corruption injected across any leg — the store hook went unexercised")
	}
}
