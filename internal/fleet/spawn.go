package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"verikern/internal/soak"
)

// ProcSet supervises local worker processes for a coordinator: each
// slot runs `bin args...` (conventionally `kzm-sim -fleet-worker
// <addr>`) under respawn, which restarts it whenever it exits while
// the context is live — which is what turns a chaos kill, a crash, or
// a drained "no shard available" exit into a fresh hello at the
// coordinator.
type ProcSet struct {
	mu   sync.Mutex
	live []*exec.Cmd
	wg   sync.WaitGroup
}

// SpawnLocalWorkers starts n supervised worker processes. Cancelling
// ctx stops the supervision and kills any still-running processes
// (via exec.CommandContext); call Wait to reap them.
func SpawnLocalWorkers(ctx context.Context, bin string, n int, args []string, logf func(format string, args ...any)) *ProcSet {
	p := &ProcSet{}
	respawn(ctx, &p.wg, n, logf, func(ctx context.Context) error { return p.run(ctx, bin, args) })
	return p
}

// run starts one worker process and waits for it to exit.
func (p *ProcSet) run(ctx context.Context, bin string, args []string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	if err := cmd.Start(); err != nil {
		return err
	}
	p.mu.Lock()
	p.live = append(p.live, cmd)
	p.mu.Unlock()
	err := cmd.Wait()
	p.mu.Lock()
	for i, c := range p.live {
		if c == cmd {
			p.live = append(p.live[:i], p.live[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	return err
}

// respawn starts n worker slots on wg. Each calls run, and calls it
// again whenever it returns while ctx is live — a chaos kill, a crash,
// a failed start or a drained "no shard available" exit. ProcSet's
// slots run a worker process; RunLocal's run RunWorkerLoop over pipes.
// Jittered exponential backoff (shared with RunWorkerLoop's reconnect
// path) keeps a crash-looping worker — or a coordinator with nothing
// to lease — from being hammered by spawn/exit cycles. A run that
// stayed up a while resets it.
func respawn(ctx context.Context, wg *sync.WaitGroup, n int, logf func(format string, args ...any), run func(context.Context) error) {
	for slot := 0; slot < n; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			bo := NewBackoff(100*time.Millisecond, 5*time.Second, uint64(slot)+1)
			for ctx.Err() == nil {
				started := time.Now()
				err := run(ctx)
				if ctx.Err() != nil {
					return
				}
				if time.Since(started) >= time.Second {
					bo.Reset()
				}
				if logf != nil {
					logf("fleet: worker slot %d exited (%v), respawning", slot, err)
				}
				if !bo.Sleep(ctx) {
					return
				}
			}
		}(slot)
	}
}

// Kill SIGKILLs the live worker process with this pid — the signal
// of a process-level chaos kill (Config.WithKills). It reports false,
// signalling nothing, if the set runs no such process.
func (p *ProcSet) Kill(pid int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cmd := range p.live {
		if cmd.Process != nil && cmd.Process.Pid == pid {
			return cmd.Process.Kill() == nil
		}
	}
	return false
}

// Wait blocks until every supervision loop has stopped (after the
// spawn context is cancelled).
func (p *ProcSet) Wait() { p.wg.Wait() }

// WithKills returns cfg with a budget of chaos kills: every served
// connection is wrapped in KillAfterFirstBatch beneath cfg's own
// WrapConn, and the first kills strikes are granted. Each is logged
// and reported to kill (nil in process, where the severed connection
// is the whole kill) with the struck worker's pid. CheckKills tells
// whether the budget can be spent.
func (cfg Config) WithKills(kills int, kill func(pid int)) Config {
	if kills <= 0 {
		return cfg
	}
	var claimed atomic.Int64
	claim := func(pid int) bool {
		n := claimed.Add(1)
		if n > int64(kills) {
			return false
		}
		if cfg.Logf != nil {
			cfg.Logf("fleet: chaos kill %d/%d strikes worker pid %d", n, kills, pid)
		}
		if kill != nil {
			kill(pid)
		}
		return true
	}
	wrap := cfg.WrapConn
	cfg.WrapConn = func(rwc io.ReadWriteCloser) io.ReadWriteCloser {
		rwc = KillAfterFirstBatch(rwc, claim)
		if wrap != nil {
			rwc = wrap(rwc)
		}
		return rwc
	}
	return cfg
}

// CheckKills refuses a budget of chaos kills that cannot be spent on
// cfg's campaign: KillAfterFirstBatch strikes only a worker whose
// first batch is not its last, so every shard's budget must exceed the
// batch size.
func CheckKills(cfg Config, kills int) error {
	if kills <= 0 {
		return nil
	}
	scfg := cfg.Spec.SoakConfig().WithDefaults()
	batch := cfg.batchOps()
	// The last shard is the smallest.
	if b := soak.ShardBudget(scfg.Ops, scfg.Workers, scfg.Workers-1); b <= uint64(batch) {
		return fmt.Errorf("fleet: chaos kills cannot land: a %d-op shard streams in one %d-op batch, and a worker is struck only after a first batch that is not its last", b, batch)
	}
	return nil
}

// errChaosKilled ends a connection whose worker a chaos kill struck.
var errChaosKilled = errors.New("fleet: worker chaos-killed")

// KillAfterFirstBatch is the one chaos-kill rule: it wraps a
// coordinator-side worker connection so a kill lands on a live lease.
// It reads each frame ahead of the coordinator. When the worker's
// first batch is not its final one, it passes that batch on and asks
// claim for a kill of the pid the worker's hello named. If claim
// grants it, the coordinator's next read closes the connection and
// fails — in process, severing the pipe is the whole kill; a
// process-level caller also signals the pid. Whatever the worker
// streamed after that batch is lost with it, so the shard is released
// at the first batch's checkpoint and its successor fast-forwards past
// it, however far the worker got before the kill landed. A worker
// streams a short shard faster than any poll of the merged ops, which
// is why the strike follows its frames. Config.WithKills installs it
// under a kill budget.
func KillAfterFirstBatch(rwc io.ReadWriteCloser, claim func(pid int) bool) io.ReadWriteCloser {
	return &strikeConn{ReadWriteCloser: rwc, claim: claim}
}

type strikeConn struct {
	io.ReadWriteCloser
	claim   func(pid int) bool
	pending bytes.Buffer // the frame read ahead, not yet passed on
	pid     int
	batched bool // the worker's first batch has been read
	struck  bool
}

func (s *strikeConn) Read(p []byte) (int, error) {
	if s.pending.Len() == 0 {
		if s.struck {
			s.ReadWriteCloser.Close()
			return 0, errChaosKilled
		}
		t, body, err := readMsg(io.TeeReader(s.ReadWriteCloser, &s.pending))
		if err != nil {
			s.pending.Reset()
			return 0, err
		}
		switch t {
		case msgHello:
			var h Hello
			if json.Unmarshal(body, &h) == nil {
				s.pid = h.PID
			}
		case msgBatch:
			var b struct {
				Final bool `json:"final"`
			}
			if !s.batched && json.Unmarshal(body, &b) == nil && !b.Final && s.pid != 0 {
				s.struck = s.claim(s.pid)
			}
			s.batched = true
		}
	}
	return s.pending.Read(p)
}

// SetReadDeadline forwards to the underlying connection when it
// supports deadlines.
func (s *strikeConn) SetReadDeadline(t time.Time) error {
	if d, ok := s.ReadWriteCloser.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// SetWriteDeadline forwards to the underlying connection when it
// supports deadlines.
func (s *strikeConn) SetWriteDeadline(t time.Time) error {
	if d, ok := s.ReadWriteCloser.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(t)
	}
	return nil
}
