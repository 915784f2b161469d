package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"verikern/internal/obs"
	"verikern/internal/soak"
)

// WorkerOptions tunes RunWorker.
type WorkerOptions struct {
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
	// FrameTimeout is the per-frame read/write deadline on the worker
	// side (applied only when the conn supports deadlines). 0 disables
	// — in-process harnesses keep the old semantics.
	FrameTimeout time.Duration
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// workerOutcome classifies how one worker connection ended, so a
// reconnect loop can tell "retry" from "no more work".
type workerOutcome int

const (
	// workerErr: transport or protocol failure — reconnect with backoff.
	workerErr workerOutcome = iota
	// workerDone: the leased shard completed (or drained) cleanly.
	workerDone
	// workerNoShard: the coordinator had nothing to lease.
	workerNoShard
)

// RunWorker drives one fleet worker over an established connection:
// hello, receive the shard lease, deterministically fast-forward to
// the merged checkpoint (a restarted worker regenerates — without
// streaming — exactly the ops the coordinator already merged), then
// step-and-stream delta batches until the shard budget is spent, the
// coordinator drains, or ctx is cancelled. The final batch is marked
// Final and the connection closed.
func RunWorker(ctx context.Context, conn io.ReadWriteCloser, opt WorkerOptions) error {
	_, err := runWorkerConn(ctx, conn, opt, 0)
	return err
}

// RunWorkerLoop keeps a worker attached to a coordinator across
// connection failures: dial, run a session, and on any transport or
// protocol error reconnect with jittered exponential backoff (capped,
// context-cancellable). It returns nil once the coordinator reports no
// shard to lease (campaign complete or draining), or ctx's error on
// cancellation. Completed shards reset the backoff and re-dial
// immediately — one worker process can chew through several shards.
func RunWorkerLoop(ctx context.Context, dial func(ctx context.Context) (io.ReadWriteCloser, error), opt WorkerOptions) error {
	bo := NewBackoff(50*time.Millisecond, 2*time.Second, uint64(os.Getpid()))
	retries := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := dial(ctx)
		if err != nil {
			retries++
			opt.logf("fleet worker: dial failed (%v), retry %d", err, retries)
			if !bo.Sleep(ctx) {
				return ctx.Err()
			}
			continue
		}
		outcome, err := runWorkerConn(ctx, conn, opt, retries)
		switch outcome {
		case workerNoShard:
			return nil
		case workerDone:
			retries = 0
			bo.Reset()
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			retries++
			opt.logf("fleet worker: session failed (%v), reconnect %d", err, retries)
			if !bo.Sleep(ctx) {
				return ctx.Err()
			}
		}
	}
}

// runWorkerConn is one worker session; see RunWorker. Its hello
// reports retries, the failed connection attempts since the worker's
// last completed shard.
func runWorkerConn(ctx context.Context, conn io.ReadWriteCloser, opt WorkerOptions, retries int) (workerOutcome, error) {
	defer conn.Close()
	armWrite(conn, opt.FrameTimeout)
	if err := writeMsg(conn, msgHello, Hello{Proto: protoVersion, PID: os.Getpid(), Retries: retries}); err != nil {
		return workerErr, fmt.Errorf("fleet worker: hello: %w", err)
	}
	armRead(conn, opt.FrameTimeout)
	t, body, err := readMsg(conn)
	if err != nil {
		return workerErr, fmt.Errorf("fleet worker: awaiting assign: %w", err)
	}
	if t == msgDrain {
		opt.logf("fleet worker: no shard available, exiting")
		return workerNoShard, nil
	}
	if t != msgAssign {
		return workerErr, fmt.Errorf("fleet worker: unexpected message type %d", t)
	}
	var as Assign
	if err := json.Unmarshal(body, &as); err != nil {
		return workerErr, fmt.Errorf("fleet worker: bad assign: %w", err)
	}
	// The assign read's deadline is absolute; left armed it would fire
	// FrameTimeout after the hello and kill the drain watcher's read on
	// a perfectly healthy session (the coordinator legitimately sends
	// nothing between assign and drain). Clear it — a dead connection
	// still surfaces as EOF/reset on the watcher's read, and the write
	// side keeps its per-frame deadline.
	armRead(conn, 0)
	rn, err := soak.NewRunner(as.Spec.SoakConfig(), as.Shard)
	if err != nil {
		return workerErr, fmt.Errorf("fleet worker: shard %d: %w", as.Shard, err)
	}
	opt.logf("fleet worker %d: shard %d, checkpoint %d/%d", os.Getpid(), as.Shard, as.Checkpoint, as.Budget)

	// Fast-forward: replay the already-merged prefix silently. The op
	// stream is seeded per shard, so this reconstructs the exact
	// kernel and tracer state the previous incarnation had at the
	// checkpoint — including the capture list, which the stream then
	// baselines so nothing is re-streamed.
	const ffChunk = 256
	for rn.Ops() < as.Checkpoint {
		if err := ctx.Err(); err != nil {
			return workerErr, err
		}
		n := as.Checkpoint - rn.Ops()
		if n > ffChunk {
			n = ffChunk
		}
		if err := rn.Step(int(n)); err != nil {
			return workerErr, fmt.Errorf("fleet worker: fast-forward: %w", err)
		}
	}
	st := &stream{shard: as.Shard, config: as.Spec.ConfigKey, kinds: map[string]uint64{}}
	if as.Checkpoint > 0 {
		// Restart: everything up to the checkpoint — including the
		// boot-time trace events — was merged by the previous
		// incarnation's batches; baseline it all away.
		rn.Tally(&st.sent)
	}
	// Fresh shard: keep the zero baseline, so the first batch carries
	// the boot-time events (object creation emits create-chunk events
	// before the first op) exactly as an in-process soak's tally would.

	// The reader goroutine watches for the coordinator's drain (or a
	// dead connection) while the main loop steps the kernel. Corrupt
	// frames (a faulty link can garble the drain direction too) are
	// tolerated up to a budget of consecutive strikes before the
	// connection is declared lost; a well-formed frame resets the
	// count, mirroring the coordinator's strike counter, so a
	// long-lived noisy link is not eventually condemned by its
	// cumulative history.
	drainCh := make(chan struct{})
	lostCh := make(chan struct{})
	go func() {
		corrupt := 0
		for {
			t, _, err := readMsg(conn)
			if err != nil {
				if errors.Is(err, errCorruptFrame) {
					if corrupt++; corrupt <= 32 {
						continue
					}
				}
				close(lostCh)
				return
			}
			corrupt = 0
			if t == msgDrain {
				close(drainCh)
				return
			}
		}
	}()

	batchOps := as.BatchOps
	if batchOps <= 0 {
		batchOps = 512
	}
	for {
		final := false
		select {
		case <-ctx.Done():
			final = true
		case <-drainCh:
			final = true
		case <-lostCh:
			return workerErr, fmt.Errorf("fleet worker: connection lost")
		default:
		}
		remaining := uint64(0)
		if as.Budget > rn.Ops() {
			remaining = as.Budget - rn.Ops()
		}
		if remaining == 0 {
			final = true
		}
		if !final {
			n := uint64(batchOps)
			if n > remaining {
				n = remaining
			}
			if err := rn.Step(int(n)); err != nil {
				return workerErr, fmt.Errorf("fleet worker: shard %d: %w", as.Shard, err)
			}
			if rn.Ops() >= as.Budget {
				final = true
			}
		}
		b, err := st.batch(rn)
		if err != nil {
			return workerErr, fmt.Errorf("fleet worker: delta: %w", err)
		}
		b.Final = final
		armWrite(conn, opt.FrameTimeout)
		if err := writeMsg(conn, msgBatch, b); err != nil {
			return workerErr, fmt.Errorf("fleet worker: stream: %w", err)
		}
		if final {
			opt.logf("fleet worker %d: shard %d done at %d ops", os.Getpid(), as.Shard, rn.Ops())
			return workerDone, nil
		}
	}
}

// stream tracks what a worker has streamed: each batch is the
// difference between the runner's tally now and its tally at the
// previous batch. A fresh shard starts from the zero tally, so its
// first batch carries the boot-time events; a restarted one starts
// from the tally at the merged checkpoint.
type stream struct {
	shard int
	// config is the spec's ConfigKey, echoed on every batch so the
	// coordinator can refuse deltas from another configuration.
	config string
	sent   soak.Tally // the runner's tally at the last batch
	delta  soak.Tally
	// sources and kinds are reused by every batch, so streaming a
	// window allocates little beyond its wire encoding.
	sources []SourceDelta
	kinds   map[string]uint64
}

// batch encodes the window since the last batch as a Batch, the
// inverse of Batch.tally, and advances the baseline. The returned
// batch shares the stream's buffers and is valid until the next call.
func (s *stream) batch(rn *soak.Runner) (Batch, error) {
	rn.Tally(&s.delta)
	now := s.delta
	if err := s.delta.Sub(&s.sent); err != nil {
		return Batch{}, err
	}
	d := &s.delta
	b := Batch{
		Shard:       s.shard,
		Config:      s.config,
		FromOps:     s.sent.Ops,
		ToOps:       now.Ops,
		SimCycles:   now.SimCycles,
		Emitted:     d.Emitted,
		Dropped:     d.Dropped,
		EventCounts: s.kinds,
		Violations:  d.Violations,
		NearMax:     d.NearMax,
		Captures:    d.Captures,
	}
	clear(s.kinds)
	for k, n := range d.Kinds {
		if n > 0 {
			s.kinds[obs.Kind(k).String()] = n
		}
	}
	s.sources = s.sources[:0]
	for op := range d.Sources {
		if d.Sources[op].Count() > 0 {
			s.sources = append(s.sources, SourceDelta{Op: uint8(op), Hist: d.Sources[op].State()})
		}
	}
	b.Sources = s.sources
	s.sent = now
	return b, nil
}
