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
	// Retries is the failed-connection-attempt count reported in the
	// hello; RunWorkerLoop maintains it, direct callers may leave 0.
	Retries int
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
	_, err := runWorkerConn(ctx, conn, opt)
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
		o := opt
		o.Retries = retries
		outcome, err := runWorkerConn(ctx, conn, o)
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

// runWorkerConn is one worker session; see RunWorker.
func runWorkerConn(ctx context.Context, conn io.ReadWriteCloser, opt WorkerOptions) (workerOutcome, error) {
	defer conn.Close()
	armWrite(conn, opt.FrameTimeout)
	if err := writeMsg(conn, msgHello, Hello{Proto: protoVersion, PID: os.Getpid(), Retries: opt.Retries}); err != nil {
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
	// checkpoint — including the capture list, which the cursor then
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
	cur := newCursor(as.Shard)
	cur.config = as.Spec.ConfigKey
	if as.Checkpoint > 0 {
		// Restart: everything up to the checkpoint — including the
		// boot-time trace events — was merged by the previous
		// incarnation's batches; baseline it all away.
		cur.sync(rn)
	}
	// Fresh shard: keep the zero baseline, so the first batch carries
	// the boot-time events (object creation emits create-chunk events
	// before the first op) exactly as an in-process AddTracer would.

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
		b, err := cur.batch(rn)
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

// cursor tracks what a worker has already streamed, so each batch
// carries exactly the window since the previous one. After a restart's
// fast-forward, sync re-baselines everything (including the capture
// count) at the merged checkpoint.
type cursor struct {
	shard int
	// config is the spec's ConfigKey, echoed on every batch so the
	// coordinator can refuse deltas from another configuration.
	config       string
	prevOps      uint64
	prevSrc      []obs.Histogram
	prevKinds    []uint64
	prevEmitted  uint64
	prevDropped  uint64
	prevViol     uint64
	prevNearMax  uint64
	prevCaptures uint64
	// srcBuf and sources are reused by every batch, so streaming a
	// window allocates little beyond its wire encoding.
	srcBuf  []obs.SourceLatency
	sources []SourceDelta
}

func newCursor(shard int) *cursor {
	return &cursor{
		shard:     shard,
		prevSrc:   make([]obs.Histogram, obs.NumOps()),
		prevKinds: make([]uint64, obs.NumKinds()),
	}
}

// sync baselines the cursor at the runner's current state: everything
// up to here is considered already merged upstream.
func (c *cursor) sync(rn *soak.Runner) {
	tr := rn.Tracer()
	c.prevOps = rn.Ops()
	for i := range c.prevSrc {
		c.prevSrc[i] = obs.Histogram{}
	}
	c.srcBuf = tr.AppendSourceLatencies(c.srcBuf[:0])
	for _, sl := range c.srcBuf {
		c.prevSrc[sl.Source] = sl.Hist
	}
	for k := range c.prevKinds {
		c.prevKinds[k] = tr.Count(obs.Kind(k))
	}
	c.prevEmitted = tr.Emitted()
	c.prevDropped = tr.Dropped()
	st := rn.SentinelStatus()
	c.prevViol = st.Violations
	c.prevNearMax = st.NearMax
	c.prevCaptures = uint64(len(rn.Captures()))
}

// batch extracts the delta window since the last batch (or sync) and
// advances the cursor. The returned batch's Sources share the
// cursor's buffer and are valid until the next call.
func (c *cursor) batch(rn *soak.Runner) (Batch, error) {
	tr := rn.Tracer()
	b := Batch{
		Shard:     c.shard,
		Config:    c.config,
		FromOps:   c.prevOps,
		ToOps:     rn.Ops(),
		SimCycles: rn.Kernel().Now(),
	}
	c.srcBuf = tr.AppendSourceLatencies(c.srcBuf[:0])
	c.sources = c.sources[:0]
	for i := range c.srcBuf {
		sl := &c.srcBuf[i]
		sd, err := sl.Hist.DeltaSince(&c.prevSrc[sl.Source])
		if err != nil {
			return b, err
		}
		if sd.Count() > 0 {
			c.sources = append(c.sources, SourceDelta{Op: uint8(sl.Source), Hist: sd.State()})
		}
		c.prevSrc[sl.Source] = sl.Hist
	}
	if len(c.sources) > 0 {
		b.Sources = c.sources
	}
	for k := range c.prevKinds {
		if cnt := tr.Count(obs.Kind(k)); cnt > c.prevKinds[k] {
			if b.EventCounts == nil {
				b.EventCounts = make(map[string]uint64)
			}
			b.EventCounts[obs.Kind(k).String()] = cnt - c.prevKinds[k]
			c.prevKinds[k] = cnt
		}
	}
	em, dr := tr.Emitted(), tr.Dropped()
	b.Emitted, b.Dropped = em-c.prevEmitted, dr-c.prevDropped
	c.prevEmitted, c.prevDropped = em, dr
	st := rn.SentinelStatus()
	b.Violations = st.Violations - c.prevViol
	b.NearMax = st.NearMax - c.prevNearMax
	c.prevViol, c.prevNearMax = st.Violations, st.NearMax
	caps := uint64(len(rn.Captures()))
	b.Captures = caps - c.prevCaptures
	c.prevCaptures = caps
	c.prevOps = rn.Ops()
	return b, nil
}
