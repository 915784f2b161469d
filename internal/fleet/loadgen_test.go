package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeUnderLoad is the observability loadgen: while a fleet
// campaign is streaming merges, many goroutines hammer /metrics,
// /snapshot.json and /fleet.json concurrently. Every response must
// parse, and every snapshot must be internally consistent (per-source
// sample counts summing to the aggregate count) — the merge holds the
// coordinator lock for the whole batch, so readers may never observe
// a half-applied batch. Run under -race in CI, this also proves the
// snapshot path racefree against the connections merging.
func TestServeUnderLoad(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := fleetSpec(500_000, 2) // far more budget than the test runs
	sp.BoundCycles = 142_957
	c, err := New(ctx, Config{Spec: sp, BatchOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var workers sync.WaitGroup
	for i := 0; i < sp.Workers; i++ {
		server, client := net.Pipe()
		go c.ServeConn(server)
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = RunWorker(ctx, client, WorkerOptions{})
		}()
	}
	srv := httptest.NewServer(NewMux(c.Snapshot, c.Status))
	defer srv.Close()

	// Let some merges land first so the assertions bite.
	deadline := time.Now().Add(10 * time.Second)
	for c.Status().MergedOps == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if c.Status().MergedOps == 0 {
		t.Fatal("no merges before load")
	}

	const clients = 12
	const reqs = 25
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				switch (g + i) % 3 {
				case 0:
					body, err := get(srv.URL + "/snapshot.json")
					if err != nil {
						errCh <- err
						return
					}
					var snap struct {
						IRQ struct {
							Count uint64 `json:"count"`
						} `json:"irq_latency"`
						Sources []struct {
							Count uint64 `json:"count"`
						} `json:"sources"`
					}
					if err := json.Unmarshal(body, &snap); err != nil {
						errCh <- err
						return
					}
					var sum uint64
					for _, s := range snap.Sources {
						sum += s.Count
					}
					if sum != snap.IRQ.Count {
						t.Errorf("torn snapshot: sources sum %d, aggregate %d", sum, snap.IRQ.Count)
					}
				case 1:
					body, err := get(srv.URL + "/metrics")
					if err != nil {
						errCh <- err
						return
					}
					text := string(body)
					for _, want := range []string{
						"verikern_irq_latency_cycles_bucket",
						"verikern_irq_latency_quantile_cycles",
						"verikern_build_info",
						"verikern_fleet_batches_total",
					} {
						if !strings.Contains(text, want) {
							t.Errorf("/metrics missing %s", want)
						}
					}
				case 2:
					body, err := get(srv.URL + "/fleet.json")
					if err != nil {
						errCh <- err
						return
					}
					var st Status
					if err := json.Unmarshal(body, &st); err != nil {
						errCh <- err
						return
					}
					if len(st.Shards) != sp.Workers {
						t.Errorf("/fleet.json has %d shards, want %d", len(st.Shards), sp.Workers)
					}
					var merged uint64
					for _, sh := range st.Shards {
						merged += sh.Checkpoint
					}
					if merged != st.MergedOps {
						t.Errorf("torn status: shard checkpoints sum %d, merged_ops %d", merged, st.MergedOps)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("loadgen request failed: %v", err)
	}

	// pprof must be mounted on the same listener.
	if body, err := get(srv.URL + "/debug/pprof/cmdline"); err != nil || len(body) == 0 {
		t.Errorf("pprof endpoint: err %v, %d bytes", err, len(body))
	}

	cancel()
	workers.Wait()
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestStatusPrometheus checks the verikern_fleet_* family: every
// series is typed, and each carries the value /fleet.json serves.
func TestStatusPrometheus(t *testing.T) {
	st := Status{TotalOps: 4000, Batches: 9, Dropped: 2, Degraded: true, Recoveries: 1, RecoveryP99MS: 12.5, SnapshotAgeMS: -1}
	var buf strings.Builder
	writeStatusProm(&buf, st)
	text := buf.String()
	for _, want := range []string{
		"verikern_fleet_total_ops 4000\n",
		"# TYPE verikern_fleet_batches_total counter\nverikern_fleet_batches_total 9\n",
		"verikern_fleet_dropped_total 2\n",
		"verikern_fleet_degraded 1\n",
		"verikern_fleet_completed 0\n",
		"verikern_fleet_recoveries_total 1\n",
		"verikern_fleet_recovery_p99_milliseconds 12.5\n",
		"verikern_fleet_snapshot_age_milliseconds -1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	var series, typed int
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE verikern_fleet_"):
			typed++
		case !strings.HasPrefix(line, "#"):
			series++
		}
	}
	if series == 0 || series != typed {
		t.Errorf("%d series, %d TYPE lines", series, typed)
	}
}
