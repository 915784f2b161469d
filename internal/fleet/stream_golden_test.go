package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/soak"
)

// streamGolden lists the SHA-256 of every Batch frame payload a fresh
// worker streams, one line per frame: backend, bound, shard, frame
// index, digest.
const streamGolden = "testdata/batch_stream.golden"

// TestBatchStreamPinned pins the worker's wire output byte for byte:
// a fresh 2-shard, 20k-op benno+preempt campaign at seed 42, streamed
// at the coordinator's default 512 ops per batch, on both backends.
// Each stream runs twice: under the analysed WCET bound, and under a
// bound of 11,000 cycles that the retype samples breach, so the violation,
// near-max and capture counts reach the wire too. The worker drives
// a real session over net.Pipe against a scripted coordinator that
// leases the shard and reads frames until the final one.
func TestBatchStreamPinned(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var got strings.Builder
	for _, id := range []string{arch.ARM1136ID, arch.CVA6RTID} {
		np, err := konfig.LegacyPoint(id, true, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := np.Campaign(42, 20_000, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg = cfg.WithDefaults()
		analysed, err := soak.ComputeBound(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []uint64{analysed, 11_000} {
			cfg.BoundCycles = bound
			for shard := 0; shard < cfg.Workers; shard++ {
				for i, sum := range streamShard(ctx, t, SpecFromConfig(cfg), shard) {
					fmt.Fprintf(&got, "%s %d %d %02d %x\n", id, bound, shard, i, sum)
				}
			}
		}
	}
	want, err := os.ReadFile(filepath.FromSlash(streamGolden))
	if err != nil {
		t.Fatalf("%v\nthe stream reads:\n%s", err, got.String())
	}
	if got.String() != string(want) {
		t.Errorf("the batch stream moved; it now reads:\n%s", got.String())
	}
}

// streamShard leases shard of sp to a fresh RunWorker session and
// returns the SHA-256 of each Batch payload it streams.
func streamShard(ctx context.Context, t *testing.T, sp Spec, shard int) [][32]byte {
	t.Helper()
	coord, worker := net.Pipe()
	defer coord.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- RunWorker(ctx, worker, WorkerOptions{}) }()
	if typ, _, err := readMsg(coord); err != nil || typ != msgHello {
		t.Fatalf("hello: type %d, %v", typ, err)
	}
	as := Assign{Shard: shard, Budget: soak.ShardBudget(sp.Ops, sp.Workers, shard), BatchOps: 512, Spec: sp}
	if err := writeMsg(coord, msgAssign, as); err != nil {
		t.Fatal(err)
	}
	var sums [][32]byte
	for {
		typ, body, err := readMsg(coord)
		if err != nil {
			t.Fatalf("shard %d frame %d: %v", shard, len(sums), err)
		}
		if typ != msgBatch {
			t.Fatalf("shard %d frame %d: type %d, want a batch", shard, len(sums), typ)
		}
		sums = append(sums, sha256.Sum256(body))
		var b Batch
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		if b.Final {
			break
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("shard %d worker: %v", shard, err)
	}
	return sums
}
