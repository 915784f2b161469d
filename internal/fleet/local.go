package fleet

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// LocalOptions tunes RunLocal.
type LocalOptions struct {
	// ChaosKills abruptly severs this many worker connections
	// mid-campaign, each as its worker streams past about a third of
	// a shard's budget, exercising the kill/restart/fast-forward path.
	// The supervisor replaces each killed worker, so the campaign
	// still completes.
	ChaosKills int
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// RunLocal drives a whole fleet campaign in one process: a coordinator
// plus in-process workers connected over net.Pipe, supervised so that
// killed or drained workers are replaced until every shard completes.
// It returns the coordinator (stopped, fully merged) for inspection.
//
// This is the reference harness for the equal-seed equivalence proof:
// everything — sharding, wire protocol, delta merge, kill/restart —
// runs exactly as in the multi-process deployment, minus the TCP.
func RunLocal(ctx context.Context, cfg Config, opt LocalOptions) (*Coordinator, error) {
	c, err := New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	workerCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var live []net.Conn // coordinator-side ends, severed on exit
	// closeLive severs every remaining pipe so goroutines wedged in
	// undeadlined reads (possible under chaos with frame deadlines off)
	// unblock before wg.Wait; cancel alone cannot reach a blocked Read.
	closeLive := func() {
		mu.Lock()
		for _, cn := range live {
			cn.Close()
		}
		mu.Unlock()
	}
	// A chaos kill fails the worker's write of the batch that would
	// take it past a third of an average shard — the first batch when
	// a shard fits in one. Striking from the worker's side of the pipe
	// makes every kill sever a lease that still has batches to stream:
	// a supervisor watching merged ops can be outrun by workers that
	// stream their whole shard before any of it is merged.
	killAfter := int(c.spec.Ops/uint64(c.spec.Workers)/3) / c.batchOps
	var kills atomic.Int64
	claimKill := func() bool {
		n := kills.Add(1)
		if n > int64(opt.ChaosKills) {
			return false
		}
		if opt.Logf != nil {
			opt.Logf("fleet: chaos kill %d/%d", n, opt.ChaosKills)
		}
		return true
	}
	var pendingRetries atomic.Int64 // failed sessions, reported at the next hello

	var wg sync.WaitGroup
	spawn := func() {
		server, client := net.Pipe()
		mu.Lock()
		live = append(live, server)
		mu.Unlock()
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = c.ServeConn(server)
			mu.Lock()
			for i, cn := range live {
				if cn == server {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			mu.Unlock()
		}()
		var wconn net.Conn = client
		if opt.ChaosKills > 0 {
			wconn = &killConn{Conn: client, after: 1 + killAfter, kill: claimKill}
		}
		go func() {
			defer wg.Done()
			wopt := WorkerOptions{Logf: opt.Logf, Retries: int(pendingRetries.Swap(0))}
			if err := RunWorker(workerCtx, wconn, wopt); err != nil && workerCtx.Err() == nil {
				// The replacement's hello carries the retry count, the
				// in-process analogue of RunWorkerLoop's reconnects.
				pendingRetries.Add(int64(wopt.Retries) + 1)
			}
		}()
	}
	for i := 0; i < c.spec.Workers; i++ {
		spawn()
	}

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
supervise:
	for {
		select {
		case <-c.Done():
			break supervise
		case <-ctx.Done():
			cancel()
			closeLive()
			wg.Wait()
			c.Stop()
			return c, ctx.Err()
		case <-tick.C:
		}
		// Keep enough workers alive for the incomplete shards: a
		// killed (or drained) worker's replacement leases the freed
		// shard and fast-forwards to its checkpoint.
		st := c.Status()
		incomplete, attached := 0, 0
		for _, sh := range st.Shards {
			if !sh.Completed {
				incomplete++
				if sh.Attached {
					attached++
				}
			}
		}
		mu.Lock()
		liveN := len(live)
		mu.Unlock()
		if incomplete > 0 && liveN < incomplete && attached < incomplete {
			spawn()
		}
	}
	cancel()
	closeLive()
	wg.Wait()
	c.Stop()
	return c, nil
}

// killConn is a worker's end of a local pipe. Its write number
// after+1 (writeMsg makes one Write per frame: the hello, then one per
// batch) claims a chaos kill and, when one is left, closes the pipe
// instead of sending.
type killConn struct {
	net.Conn
	after  int
	writes int
	kill   func() bool
}

func (k *killConn) Write(p []byte) (int, error) {
	k.writes++
	if k.writes == k.after+1 && k.kill() {
		k.Conn.Close()
		return 0, io.ErrClosedPipe
	}
	return k.Conn.Write(p)
}
