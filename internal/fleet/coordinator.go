package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"verikern/internal/arch"
	"verikern/internal/obs"
	"verikern/internal/soak"
)

// Config parameterises a Coordinator.
type Config struct {
	// Spec is the fleet-wide workload: Spec.Ops is the total op
	// budget, Spec.Workers the shard count. A zero BoundCycles is
	// resolved through the same ComputeBound the in-process soak
	// uses, so the sentinel bound matches a single-process run.
	Spec Spec
	// BatchOps is how many ops a worker runs between streamed
	// batches. Default 512.
	BatchOps int
	// StatePath optionally persists merged checkpoints (atomically,
	// after every merge) so a restarted coordinator resumes the
	// campaign instead of starting over. The file is keyed by a hash
	// of the resolved spec; a mismatch is an error, not a silent
	// restart. A corrupt or torn file (bad checksum, unparseable) is
	// quarantined to StatePath+".corrupt" and the campaign starts
	// fresh — regeneration is always safe, resuming garbage is not.
	StatePath string
	// LeaseTimeout bounds how long a leased, incomplete shard may go
	// without a merged batch before the coordinator reclaims the lease
	// (severing the connection so a healthy worker can re-lease the
	// shard). Checkpoint-gated admission makes the reclaim safe even
	// if the old worker is merely slow: its late batches are dropped
	// as stale. 0 defaults to 60s; negative disables reaping.
	LeaseTimeout time.Duration
	// FrameTimeout is the per-frame read/write deadline on worker
	// connections (applied only when the conn supports deadlines).
	// A stalled or desynchronised peer fails its frame instead of
	// wedging the reader goroutine. 0 defaults to 30s; negative
	// disables deadlines.
	FrameTimeout time.Duration
	// QuarantineAfter severs a connection after this many consecutive
	// corrupt frames (CRC mismatch, bad length, unknown type,
	// unparseable batch) — a poisoned peer is cut off rather than
	// striking forever. Any well-formed frame resets the count.
	// 0 defaults to 8.
	QuarantineAfter int
	// WrapConn, when set, wraps every served connection before the
	// protocol runs — the fault-injection seam (chaos.Engine.Wrap),
	// set by ChaosConfig for every chaos campaign and by tests.
	WrapConn func(io.ReadWriteCloser) io.ReadWriteCloser
	// PersistTransform, when set, filters the state-file bytes just
	// before they hit disk — the checkpoint-store fault seam
	// (chaos.Engine.CorruptState). Production leaves it nil.
	PersistTransform func([]byte) []byte
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// batchOps resolves BatchOps' default.
func (cfg Config) batchOps() int {
	if cfg.BatchOps <= 0 {
		return 512
	}
	return cfg.BatchOps
}

// ChaosConfig is the coordinator profile every fault-injected campaign
// runs under: wrap (chaos.Engine.Wrap) around every served connection,
// lease and frame timeouts short enough that injected stalls are
// reclaimed within a smoke-sized run, a low quarantine threshold so a
// poisoned connection is cut fast, and batches small enough that each
// shard streams many frames for the schedule to strike.
func ChaosConfig(spec Spec, wrap func(io.ReadWriteCloser) io.ReadWriteCloser) Config {
	return Config{
		Spec:            spec,
		BatchOps:        151,
		LeaseTimeout:    2 * time.Second,
		FrameTimeout:    time.Second,
		QuarantineAfter: 4,
		WrapConn:        wrap,
	}
}

// shardState is the coordinator's view of one shard.
type shardState struct {
	checkpoint uint64 // ops merged so far — the resume point
	budget     uint64 // total ops this shard owes
	simCycles  uint64 // cumulative simulated clock at checkpoint
	owner      uint64 // conn id currently leasing the shard (0 = none)
	restarts   int    // times the lease was lost before completion
	releases   int    // lease-timeout reclaims (subset of restarts)
	completed  bool
	samples    uint64    // merged IRQ samples
	leasedAt   time.Time // when the current owner took the lease
	releasedAt time.Time // when the last dirty release happened (zeroed on re-lease)
	reaped     uint64    // owner id already reaped, to not double-count
	lastBatch  time.Time // wall time of the last merged batch
	rate       float64   // EWMA samples/sec
}

// recoveryWindow bounds the recovery-time sample ring: the reported
// p99 is over the most recent recoveries, so a months-long campaign
// neither grows the slice nor re-sorts its whole history per poll.
const recoveryWindow = 512

// Coordinator shards one soak campaign across attached workers and
// merges their streamed deltas into a live aggregate snapshot.
type Coordinator struct {
	spec     Spec // resolved: defaults applied, bound computed
	backend  string
	batchOps int
	logf     func(format string, args ...any)

	statePath        string
	stateKey         string
	persistTransform func([]byte) []byte

	leaseTimeout    time.Duration // 0 = reaping disabled
	frameTimeout    time.Duration // 0 = deadlines disabled
	quarantineAfter int
	wrapConn        func(io.ReadWriteCloser) io.ReadWriteCloser

	mu     sync.Mutex
	shards []*shardState
	// agg is the sum of every merged batch's tally, plus the op and
	// clock totals of checkpoints resumed from StatePath.
	agg      soak.Tally
	conns    map[uint64]io.Closer
	nextConn uint64
	draining bool
	stopped  bool // set by Stop; merge ignores batches afterwards
	started  time.Time

	// scratch holds a batch's decoded tally during merge, reused from
	// batch to batch (merge runs under mu).
	scratch soak.Tally

	// Transport health counters, exposed only through Status
	// (/fleet.json and the verikern_fleet_* metrics).
	batches       uint64
	dropped       uint64 // batches refused at admission
	mergeNS       uint64
	restarts      uint64
	retries       uint64 // worker reconnect attempts reported at hello
	releases      uint64 // lease-timeout reclaims by the reaper
	framesCorrupt uint64 // frames failing CRC/length/type validation
	quarantined   uint64 // connections severed after QuarantineAfter strikes
	lastMerge     time.Time
	recoveries    uint64    // total dirty release → successor lease cycles
	recoveriesMS  []float64 // ring of the most recent recoveryWindow recovery times
	recoveryIdx   int       // next ring slot once the window is full

	stopCh chan struct{}
	doneCh chan struct{} // closed when every shard completes
	doneMu sync.Once
	stopMu sync.Once

	reaperWG sync.WaitGroup
}

// New resolves the spec (defaults, backend, WCET bound, shard
// budgets), loads any persisted checkpoints, and starts the lease
// reaper. Callers must Stop it.
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	scfg := cfg.Spec.SoakConfig().WithDefaults()
	backend, err := arch.Lookup(scfg.Arch)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if scfg.BoundCycles == 0 {
		b, err := soak.ComputeBound(ctx, scfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: bound: %w", err)
		}
		scfg.BoundCycles = b
	}
	spec := SpecFromConfig(scfg)
	c := &Coordinator{
		spec:             spec,
		backend:          backend.ID,
		batchOps:         cfg.batchOps(),
		logf:             cfg.Logf,
		statePath:        cfg.StatePath,
		persistTransform: cfg.PersistTransform,
		leaseTimeout:     cfg.LeaseTimeout,
		frameTimeout:     cfg.FrameTimeout,
		quarantineAfter:  cfg.QuarantineAfter,
		wrapConn:         cfg.WrapConn,
		conns:            make(map[uint64]io.Closer),
		started:          time.Now(),
		stopCh:           make(chan struct{}),
		doneCh:           make(chan struct{}),
	}
	if c.leaseTimeout == 0 {
		c.leaseTimeout = 60 * time.Second
	} else if c.leaseTimeout < 0 {
		c.leaseTimeout = 0
	}
	if c.frameTimeout == 0 {
		c.frameTimeout = 30 * time.Second
	} else if c.frameTimeout < 0 {
		c.frameTimeout = 0
	}
	if c.quarantineAfter <= 0 {
		c.quarantineAfter = 8
	}
	c.shards = make([]*shardState, spec.Workers)
	for i := range c.shards {
		c.shards[i] = &shardState{budget: soak.ShardBudget(spec.Ops, spec.Workers, i)}
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	c.stateKey = fmt.Sprintf("%x", sha256.Sum256(specJSON))
	if err := c.loadState(); err != nil {
		return nil, err
	}
	c.checkComplete()
	if c.leaseTimeout > 0 {
		interval := c.leaseTimeout / 4
		if interval < 5*time.Millisecond {
			interval = 5 * time.Millisecond
		}
		if interval > time.Second {
			interval = time.Second
		}
		c.reaperWG.Add(1)
		go c.reaper(interval)
	}
	return c, nil
}

// reaper watches leased shards for stalls: an incomplete shard whose
// lease has seen no merged batch for LeaseTimeout gets its connection
// severed, which releases the lease so a healthy worker can take the
// shard over from its merged checkpoint. Any batches the stalled
// worker later produces fail the checkpoint gate.
func (c *Coordinator) reaper(interval time.Duration) {
	defer c.reaperWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-tick.C:
		}
		now := time.Now()
		var victims []io.Closer
		c.mu.Lock()
		for i, sh := range c.shards {
			if sh.completed || sh.owner == 0 || sh.owner == sh.reaped {
				continue
			}
			last := sh.leasedAt
			if sh.lastBatch.After(last) {
				last = sh.lastBatch
			}
			if last.IsZero() || now.Sub(last) < c.leaseTimeout {
				continue
			}
			cn, ok := c.conns[sh.owner]
			if !ok {
				continue
			}
			sh.reaped = sh.owner
			sh.releases++
			c.releases++
			c.logfSafe("fleet: shard %d lease timed out at checkpoint %d, reclaiming", i, sh.checkpoint)
			victims = append(victims, cn)
		}
		c.mu.Unlock()
		for _, cn := range victims {
			cn.Close()
		}
	}
}

func (c *Coordinator) logfSafe(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// Spec returns the resolved workload spec (bound computed, defaults
// applied) — the config an equivalence check replays in-process.
func (c *Coordinator) Spec() Spec { return c.spec }

// Done is closed when every shard has reached its budget.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Completed reports whether every shard reached its budget.
func (c *Coordinator) Completed() bool {
	select {
	case <-c.doneCh:
		return true
	default:
		return false
	}
}

// Serve accepts worker connections until the listener closes.
func (c *Coordinator) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			if err := c.ServeConn(conn); err != nil {
				c.logfSafe("fleet: conn: %v", err)
			}
		}()
	}
}

// ServeConn runs one worker connection to completion: handshake,
// shard lease, then batch ingestion until the worker finishes or the
// connection breaks. Each batch is merged on this goroutine before the
// next frame is read, so a slow merge blocks the reader (transport
// backpressure) and every batch is merged before the lease is
// released. A broken lease (connection lost before the final batch)
// releases the shard for the next hello, counting a restart.
// Corrupt frames (CRC/length/type failures) are counted and skipped —
// never merged — and QuarantineAfter consecutive strikes sever the
// connection as poisoned.
func (c *Coordinator) ServeConn(conn io.ReadWriteCloser) error {
	if c.wrapConn != nil {
		conn = c.wrapConn(conn)
	}
	defer conn.Close()
	// The hello read must be bounded even when per-frame deadlines are
	// off: a pre-lease connection owns no shard, so the lease reaper
	// cannot reclaim it, and a garbled hello length prefix would wedge
	// both ends of the pipe forever. Fall back to the lease timeout,
	// and when both are disabled to a hardcoded bound — the invariant
	// holds regardless of configuration.
	helloTimeout := c.frameTimeout
	if helloTimeout <= 0 {
		helloTimeout = c.leaseTimeout
	}
	if helloTimeout <= 0 {
		helloTimeout = 30 * time.Second
	}
	armRead(conn, helloTimeout)
	t, body, err := readMsg(conn)
	if err != nil {
		return fmt.Errorf("fleet: hello: %w", err)
	}
	if t != msgHello {
		return fmt.Errorf("fleet: expected hello, got type %d", t)
	}
	var h Hello
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("fleet: bad hello: %w", err)
	}
	if h.Proto != protoVersion {
		armWrite(conn, c.frameTimeout)
		writeMsg(conn, msgDrain, nil)
		return fmt.Errorf("fleet: protocol mismatch: worker %d speaks %d, want %d", h.PID, h.Proto, protoVersion)
	}

	now := time.Now()
	c.mu.Lock()
	if h.Retries > 0 {
		c.retries += uint64(h.Retries)
	}
	shard := -1
	if !c.draining && !c.stopped {
		for i, sh := range c.shards {
			if !sh.completed && sh.owner == 0 {
				shard = i
				break
			}
		}
	}
	if shard < 0 {
		c.mu.Unlock()
		// Nothing to lease (fleet complete, draining, stopped, or
		// every incomplete shard is still owned — possibly by a dead
		// conn whose reader has not yet released it). The worker
		// exits; a supervising spawner retries.
		armWrite(conn, c.frameTimeout)
		writeMsg(conn, msgDrain, nil)
		return nil
	}
	c.nextConn++
	id := c.nextConn
	sh := c.shards[shard]
	sh.owner = id
	sh.leasedAt = now
	sh.reaped = 0
	if !sh.releasedAt.IsZero() {
		// This lease recovers a shard lost to a crash, quarantine or
		// timeout: record how long the shard sat ownerless. The sample
		// ring is bounded so a long campaign's p99 tracks recent
		// recoveries instead of growing (and re-sorting) forever.
		c.recoveries++
		ms := float64(now.Sub(sh.releasedAt).Microseconds()) / 1000
		if len(c.recoveriesMS) < recoveryWindow {
			c.recoveriesMS = append(c.recoveriesMS, ms)
		} else {
			c.recoveriesMS[c.recoveryIdx] = ms
			c.recoveryIdx = (c.recoveryIdx + 1) % recoveryWindow
		}
		sh.releasedAt = time.Time{}
	}
	c.conns[id] = conn
	as := Assign{
		Shard:      shard,
		Checkpoint: sh.checkpoint,
		Budget:     sh.budget,
		BatchOps:   c.batchOps,
		Spec:       c.spec,
	}
	c.mu.Unlock()
	c.logfSafe("fleet: worker pid %d leased shard %d at checkpoint %d/%d", h.PID, shard, as.Checkpoint, as.Budget)

	armWrite(conn, c.frameTimeout)
	if err := writeMsg(conn, msgAssign, as); err != nil {
		c.release(id, shard, false)
		return fmt.Errorf("fleet: assign: %w", err)
	}

	sawFinal := false
	strikes := 0
	var readErr error
	for {
		armRead(conn, c.frameTimeout)
		t, body, err := readMsg(conn)
		if err != nil {
			if errors.Is(err, errCorruptFrame) {
				strikes++
				if !c.strike(shard, strikes) {
					readErr = fmt.Errorf("fleet: shard %d conn quarantined after %d corrupt frames: %w", shard, strikes, err)
					break
				}
				continue
			}
			if !sawFinal && !errors.Is(err, io.EOF) {
				readErr = err
			}
			break
		}
		if t != msgBatch {
			continue
		}
		var b Batch
		if err := json.Unmarshal(body, &b); err != nil {
			// CRC-valid framing with unparseable JSON — still a corrupt
			// frame as far as the merge path is concerned.
			strikes++
			if !c.strike(shard, strikes) {
				readErr = fmt.Errorf("fleet: shard %d conn quarantined after %d corrupt frames: bad batch: %v", shard, strikes, err)
				break
			}
			continue
		}
		strikes = 0
		if b.Final {
			sawFinal = true
		}
		c.merge(id, b)
	}
	c.release(id, shard, sawFinal)
	return readErr
}

// strike counts one corrupt frame and reports whether the connection
// may keep reading (false once the quarantine threshold is reached).
func (c *Coordinator) strike(shard, strikes int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.framesCorrupt++
	if strikes < c.quarantineAfter {
		return true
	}
	c.quarantined++
	c.logfSafe("fleet: shard %d: quarantining connection after %d consecutive corrupt frames", shard, strikes)
	return false
}

// release returns a shard lease. ServeConn calls it only after merging
// every batch the connection read, so a successor's checkpoint
// includes them. A lease lost before the final batch counts as a
// restart.
func (c *Coordinator) release(id uint64, shard int, clean bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, id)
	sh := c.shards[shard]
	if sh.owner == id {
		sh.owner = 0
		if !clean && !sh.completed {
			sh.restarts++
			c.restarts++
			sh.releasedAt = time.Now()
			c.logfSafe("fleet: shard %d lease lost at checkpoint %d (restart %d)", shard, sh.checkpoint, sh.restarts)
		}
	}
}

// merge applies one batch under the coordinator lock, which serialises
// every connection's merges: the result is exact and order-independent
// because the checkpoint gate only admits the batch continuing each
// shard's merged prefix. Batches from a stale lease, not contiguous
// with the merged checkpoint, past the shard's budget, from another
// configuration or that do not decode into a tally (an unknown event
// kind, an out-of-range source op, a malformed histogram) are counted
// in Status.Dropped and discarded whole — dropping them is
// correctness-preserving because the checkpoint only advances on
// merge, so a successor worker regenerates exactly the dropped window.
// Once Stop has run, batches are ignored and nothing changes.
func (c *Coordinator) merge(connID uint64, b Batch) {
	start := time.Now()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	defer func() {
		c.mergeNS += uint64(time.Since(start).Nanoseconds())
		c.mu.Unlock()
	}()
	if b.Shard < 0 || b.Shard >= len(c.shards) {
		c.dropped++
		return
	}
	sh := c.shards[b.Shard]
	if sh.owner != connID || b.FromOps != sh.checkpoint || b.ToOps < b.FromOps {
		c.dropped++
		return
	}
	if b.ToOps > sh.budget {
		// Merging it would persist a checkpoint that loadState refuses.
		c.dropped++
		c.logfSafe("fleet: shard %d: batch ends at op %d past budget %d, refused", b.Shard, b.ToOps, sh.budget)
		return
	}
	if b.Config != c.spec.ConfigKey {
		// A delta observed under a different konfig lattice point is
		// not mergeable: the histograms would silently blend two
		// configurations' latency distributions.
		c.dropped++
		c.logfSafe("fleet: shard %d: batch config %q != campaign config %q, refused", b.Shard, b.Config, c.spec.ConfigKey)
		return
	}
	d := &c.scratch
	if err := b.tally(d); err != nil {
		c.dropped++
		c.logfSafe("fleet: shard %d: %v, batch refused", b.Shard, err)
		return
	}
	// The batch carries the shard's cumulative clock; the aggregate
	// sums windows.
	d.SimCycles = b.SimCycles - sh.simCycles
	c.agg.Add(d)
	var samples uint64
	for op := range d.Sources {
		samples += d.Sources[op].Count()
	}

	now := time.Now()
	if !sh.lastBatch.IsZero() {
		if dt := now.Sub(sh.lastBatch).Seconds(); dt > 0 {
			inst := float64(samples) / dt
			if sh.rate == 0 {
				sh.rate = inst
			} else {
				sh.rate = 0.3*inst + 0.7*sh.rate
			}
		}
	}
	sh.lastBatch = now
	c.lastMerge = now
	sh.samples += samples
	sh.checkpoint = b.ToOps
	sh.simCycles = b.SimCycles
	c.batches++
	if sh.checkpoint >= sh.budget {
		sh.completed = true
	}
	c.checkComplete()
	c.saveStateLocked()
}

// checkComplete closes doneCh once every shard reached its budget.
// New calls it before any connection is served, merge under mu.
func (c *Coordinator) checkComplete() {
	for _, sh := range c.shards {
		if !sh.completed {
			return
		}
	}
	c.doneMu.Do(func() { close(c.doneCh) })
}

// Drain asks every attached worker to flush and exit, then waits (up
// to ctx) for their final batches to merge. The coordinator stays
// queryable afterwards; no further shard leases are granted.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	conns := make([]io.Closer, 0, len(c.conns))
	for _, cn := range c.conns {
		conns = append(conns, cn)
	}
	c.mu.Unlock()
	for _, cn := range conns {
		if w, ok := cn.(io.Writer); ok {
			// Write errors just mean the conn is already gone.
			_ = writeMsg(w, msgDrain, nil)
		}
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		n := len(c.conns)
		c.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Stop freezes the aggregate, stops the lease reaper and severs any
// remaining connections. The aggregate stays readable; batches read
// afterwards are ignored and no further leases are granted.
func (c *Coordinator) Stop() {
	c.stopMu.Do(func() { close(c.stopCh) })
	c.mu.Lock()
	c.stopped = true
	for _, cn := range c.conns {
		cn.Close()
	}
	c.mu.Unlock()
	c.reaperWG.Wait()
}

// Snapshot renders the merged aggregate through soak.Tally.Snapshot —
// the same rendering a single-process soak's report uses. The
// transport counters live in Status only.
func (c *Coordinator) Snapshot() *obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.Snapshot(c.spec.SoakConfig())
}

// EquivalenceDigest renders a snapshot's equivalence-comparable form:
// the full JSON document minus the "config" identity stamp (two runs of
// behaviourally identical configurations — e.g. a legacy struct and its
// konfig lattice point — must digest equal even though only one carries
// a lattice hash); everything else — histograms, digests, event counts,
// sentinel verdict — must match a single-process soak byte-for-byte.
// Numbers are decoded as json.Number, so a uint64 above 2^53 keeps
// every digit.
func EquivalenceDigest(s *obs.Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var m map[string]any
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	delete(m, "config")
	out, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// EquivalenceDigests is the equal-seed equivalence verdict for a
// finished campaign: the EquivalenceDigest of the coordinator's merged
// snapshot, and that of a single-process soak of its resolved spec
// (whose bound is already analysed). The fleet is equivalent when the
// two are byte-equal.
func EquivalenceDigests(ctx context.Context, c *Coordinator) (fleetDigest, singleDigest []byte, err error) {
	if fleetDigest, err = EquivalenceDigest(c.Snapshot()); err != nil {
		return nil, nil, err
	}
	rep, err := soak.Run(ctx, c.Spec().SoakConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: single-process comparator: %w", err)
	}
	if singleDigest, err = EquivalenceDigest(rep.Snapshot); err != nil {
		return nil, nil, err
	}
	return fleetDigest, singleDigest, nil
}

// persistedState is the coordinator's checkpoint file: merged shard
// watermarks keyed by the resolved spec hash, integrity-stamped with a
// CRC32 over the document (computed with the Checksum field empty).
type persistedState struct {
	Key         string   `json:"key"`
	Checkpoints []uint64 `json:"checkpoints"`
	SimCycles   []uint64 `json:"sim_cycles"`
	Checksum    string   `json:"checksum"`
}

// stateChecksum renders the canonical checksum of a state document:
// CRC32 (IEEE) of its JSON form with the Checksum field cleared.
func stateChecksum(st persistedState) (string, error) {
	st.Checksum = ""
	b, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(b)), nil
}

// loadState resumes persisted checkpoints. The failure taxonomy is
// deliberate: a corrupt file (torn write, bit rot — unparseable JSON
// or checksum mismatch) is quarantined to StatePath+".corrupt" and the
// campaign regenerates from zero, because every checkpoint is
// recomputable; but a *valid* file for the wrong campaign (key
// mismatch, wrong shard shape) is a hard error, because silently
// discarding someone else's progress is an operator mistake, not a
// fault to recover from.
func (c *Coordinator) loadState() error {
	if c.statePath == "" {
		return nil
	}
	b, err := os.ReadFile(c.statePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var st persistedState
	if err := json.Unmarshal(b, &st); err != nil {
		return c.quarantineState(fmt.Sprintf("unparseable (%v)", err))
	}
	want, err := stateChecksum(st)
	if err != nil {
		return err
	}
	if st.Checksum != want {
		return c.quarantineState(fmt.Sprintf("checksum %q, want %q", st.Checksum, want))
	}
	if st.Key != c.stateKey {
		return fmt.Errorf("fleet: state %s belongs to a different campaign (key %.12s, want %.12s)", c.statePath, st.Key, c.stateKey)
	}
	if len(st.Checkpoints) != len(c.shards) || len(st.SimCycles) != len(c.shards) {
		return fmt.Errorf("fleet: state %s has %d shards, want %d", c.statePath, len(st.Checkpoints), len(c.shards))
	}
	for i, sh := range c.shards {
		if st.Checkpoints[i] > sh.budget {
			return fmt.Errorf("fleet: state %s shard %d checkpoint %d exceeds budget %d", c.statePath, i, st.Checkpoints[i], sh.budget)
		}
		sh.checkpoint = st.Checkpoints[i]
		sh.simCycles = st.SimCycles[i]
		sh.completed = sh.checkpoint >= sh.budget
		c.agg.Ops += sh.checkpoint
		c.agg.SimCycles += sh.simCycles
	}
	c.logfSafe("fleet: resumed campaign from %s (%d shards)", c.statePath, len(c.shards))
	return nil
}

// quarantineState moves a corrupt state file aside (StatePath +
// ".corrupt", kept for diagnosis) so the campaign starts fresh.
func (c *Coordinator) quarantineState(reason string) error {
	quarantine := c.statePath + ".corrupt"
	if err := os.Rename(c.statePath, quarantine); err != nil {
		return fmt.Errorf("fleet: state %s is corrupt (%s) and could not be quarantined: %w", c.statePath, reason, err)
	}
	c.logfSafe("fleet: state %s is corrupt (%s); quarantined to %s, campaign regenerates from zero", c.statePath, reason, quarantine)
	return nil
}

// saveStateLocked persists checkpoints atomically: a checksum-stamped
// document written to a unique temp file, fsynced, then renamed over
// the state path — a crash at any point leaves either the previous
// complete state or the new complete state, never a torn mix (and a
// torn temp file is ignored by its name). Note only the op and clock
// totals are persisted: a resumed coordinator's aggregate restarts
// from them with no histograms or counts, and re-accumulates only the
// remaining window, so cross-restart
// aggregates are partial by design — the checkpoint file's job is to
// not lose (or redo) op budget.
func (c *Coordinator) saveStateLocked() {
	if c.statePath == "" {
		return
	}
	st := persistedState{Key: c.stateKey}
	for _, sh := range c.shards {
		st.Checkpoints = append(st.Checkpoints, sh.checkpoint)
		st.SimCycles = append(st.SimCycles, sh.simCycles)
	}
	sum, err := stateChecksum(st)
	if err != nil {
		return
	}
	st.Checksum = sum
	b, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return
	}
	b = append(b, '\n')
	if c.persistTransform != nil {
		b = c.persistTransform(b)
	}
	dir, base := filepath.Split(c.statePath)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		c.logfSafe("fleet: persist: %v", err)
		return
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.logfSafe("fleet: persist: %v", err)
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.logfSafe("fleet: persist: %v", err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.logfSafe("fleet: persist: %v", err)
		return
	}
	// CreateTemp makes the file 0600; the checkpoint is meant to be
	// world-readable (external tooling polls StatePath), so widen it
	// before the rename publishes it.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		c.logfSafe("fleet: persist: %v", err)
		return
	}
	if err := os.Rename(tmp.Name(), c.statePath); err != nil {
		os.Remove(tmp.Name())
		c.logfSafe("fleet: persist: %v", err)
		return
	}
	// The rename itself lives in the directory; fsync it so the swap
	// survives power loss, not just a process crash. Best-effort — some
	// filesystems refuse directory syncs.
	if d, err := os.Open(filepath.Dir(c.statePath)); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
