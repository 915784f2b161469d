package fleet

import (
	"context"
	"io"
	"net"
	"sync"
)

// LocalOptions tunes RunLocal.
type LocalOptions struct {
	// ChaosKills is the campaign's budget of chaos kills, installed
	// with Config.WithKills: a worker whose first batch is not its
	// last has its connection severed just after that batch, and the
	// shard restarts from the batch's checkpoint. A shard that streams
	// in one batch is never struck (CheckKills refuses such a budget).
	ChaosKills int
}

// RunLocal drives a whole fleet campaign in one process: a coordinator
// plus Spec.Workers slots, each running the deployed worker loop,
// RunWorkerLoop, whose dial hands it one end of a net.Pipe and serves
// the other with ServeConn. The slots are respawned by the loop that
// supervises ProcSet's worker processes, so a struck or drained worker
// reconnects and respawns on the deployed backoff until every shard
// completes. Progress is logged through cfg.Logf. It returns the
// coordinator, stopped and fully merged, or with ctx's error when ctx
// ends first.
//
// This is the reference harness for the equal-seed equivalence proof:
// sharding, wire protocol, delta merge, kill/restart and reconnects
// run as in the multi-process deployment, minus the TCP and the
// process boundary.
func RunLocal(ctx context.Context, cfg Config, opt LocalOptions) (*Coordinator, error) {
	c, err := New(ctx, cfg.WithKills(opt.ChaosKills, nil))
	if err != nil {
		return nil, err
	}
	slotCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// Each dial's pipe is severed when the slots stop, so no serving
	// goroutine stays wedged in an undeadlined read (possible under
	// chaos with frame deadlines off) past wg.Wait.
	dial := func(ctx context.Context) (io.ReadWriteCloser, error) {
		server, client := net.Pipe()
		sever := context.AfterFunc(ctx, func() { server.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sever()
			_ = c.ServeConn(server)
		}()
		return client, nil
	}
	respawn(slotCtx, &wg, c.spec.Workers, cfg.Logf, func(ctx context.Context) error {
		return RunWorkerLoop(ctx, dial, WorkerOptions{Logf: cfg.Logf})
	})
	select {
	case <-c.Done():
	case <-ctx.Done():
		err = ctx.Err()
	}
	cancel()
	wg.Wait()
	c.Stop()
	return c, err
}
