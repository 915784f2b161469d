package fleet

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"
)

// TestFleetMixedConfigRefused checks the configuration-identity gate:
// a histogram delta carries no config identity of its own, so a batch
// naming a different konfig hash than the campaign's must be refused at
// admission — even when it is otherwise perfectly contiguous.
func TestFleetMixedConfigRefused(t *testing.T) {
	sp := fleetSpec(1000, 1)
	sp.ConfigKey = "cfg-a"
	sp.BoundCycles = 142_957 // skip analysis; the gate is the subject
	c, err := New(context.Background(), Config{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	client, as := dialHello(t, c)
	defer client.Close()
	if as == nil {
		t.Fatal("no shard leased")
	}
	if as.Spec.ConfigKey != "cfg-a" {
		t.Fatalf("lease spec carries config %q, want cfg-a", as.Spec.ConfigKey)
	}

	// Contiguous, owned, but observed under another configuration.
	foreign := Batch{Shard: 0, Config: "cfg-b", FromOps: 0, ToOps: 7}
	if err := writeMsg(client, msgBatch, foreign); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, c, "dropped", 1)
	if st := c.Status(); st.Shards[0].Checkpoint != 0 {
		t.Errorf("foreign-config batch moved the checkpoint to %d", st.Shards[0].Checkpoint)
	}

	// The same window under the campaign's configuration merges.
	ok := Batch{Shard: 0, Config: "cfg-a", FromOps: 0, ToOps: 7}
	if err := writeMsg(client, msgBatch, ok); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, c, "batches", 1)
	if st := c.Status(); st.Shards[0].Checkpoint != 7 {
		t.Errorf("checkpoint = %d, want 7", st.Shards[0].Checkpoint)
	}
	if got := c.Snapshot().Config; got != "cfg-a" {
		t.Errorf("merged snapshot config %q, want cfg-a", got)
	}
}

// TestFleetConfigStateRefused checks persisted checkpoints are config-
// bound: the spec hash covers ConfigKey, so a coordinator resuming a
// state file written under another configuration is refused the same
// way a different seed is.
func TestFleetConfigStateRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	statePath := filepath.Join(t.TempDir(), "fleet-state.json")
	sp := fleetSpec(600, 1)
	sp.ConfigKey = "cfg-a"
	sp.BoundCycles = 142_957
	c1, err := New(ctx, Config{Spec: sp, StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go c1.ServeConn(server)
	if err := RunWorker(ctx, client, WorkerOptions{}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !c1.Status().Shards[0].Completed && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	c1.Stop()

	other := sp
	other.ConfigKey = "cfg-b"
	if _, err := New(ctx, Config{Spec: other, StatePath: statePath}); err == nil {
		t.Error("state file written under cfg-a resumed a cfg-b campaign")
	}
	if _, err := New(ctx, Config{Spec: sp, StatePath: statePath}); err != nil {
		t.Errorf("same-config resume refused: %v", err)
	}
}

// TestFleetConfigEquivalenceNeutral checks the identity stamp does not
// leak into equivalence: a config-stamped fleet campaign digests
// byte-identical to an unstamped single-process soak — the stamp (like
// the transport counters) is identity, not observation.
func TestFleetConfigEquivalenceNeutral(t *testing.T) {
	sp := fleetSpec(2000, 2)
	sp.ConfigKey = "0123456789abcdef"
	fleet, c := digestFleet(t, Config{Spec: sp, BatchOps: 193}, LocalOptions{})
	if got := c.Snapshot().Config; got != sp.ConfigKey {
		t.Errorf("fleet snapshot config %q, want %q", got, sp.ConfigKey)
	}
	bare := sp
	bare.ConfigKey = ""
	single := digestSingle(t, bare)
	if !bytes.Equal(fleet, single) {
		t.Errorf("config-stamped fleet digest diverges from unstamped single-process soak:\n--- fleet ---\n%s\n--- single ---\n%s", fleet, single)
	}
}
