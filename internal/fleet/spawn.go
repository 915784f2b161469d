package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os/exec"
	"sync"
	"time"
)

// ProcSet supervises local worker processes for a coordinator: each
// slot runs `bin args...` (conventionally `kzm-sim -fleet-worker
// <addr>`) and restarts it whenever it exits while the context is
// live — which is what turns a chaos kill, a crash, or a drained
// "no shard available" exit into a fresh hello at the coordinator.
type ProcSet struct {
	ctx  context.Context
	logf func(format string, args ...any)

	mu   sync.Mutex
	live []*exec.Cmd
	wg   sync.WaitGroup
}

// SpawnLocalWorkers starts n supervised worker processes. Cancelling
// ctx stops the supervision and kills any still-running processes
// (via exec.CommandContext); call Wait to reap them.
func SpawnLocalWorkers(ctx context.Context, bin string, n int, args []string, logf func(format string, args ...any)) *ProcSet {
	p := &ProcSet{ctx: ctx, logf: logf}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.supervise(i, bin, args)
	}
	return p
}

func (p *ProcSet) supervise(slot int, bin string, args []string) {
	defer p.wg.Done()
	// Jittered exponential backoff (shared with RunWorkerLoop's
	// reconnect path) so a crash-looping worker binary — or a
	// coordinator with nothing to lease — is not hammered by
	// spawn/exit cycles. A worker that stayed up a while resets it.
	bo := NewBackoff(100*time.Millisecond, 5*time.Second, uint64(slot)+1)
	for p.ctx.Err() == nil {
		cmd := exec.CommandContext(p.ctx, bin, args...)
		started := time.Now()
		if err := cmd.Start(); err != nil {
			if p.logf != nil {
				p.logf("fleet: worker slot %d: %v", slot, err)
			}
			return
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
		if p.ctx.Err() != nil {
			return
		}
		if time.Since(started) >= time.Second {
			bo.Reset()
		}
		if p.logf != nil {
			p.logf("fleet: worker slot %d exited (%v), respawning", slot, err)
		}
		if !bo.Sleep(p.ctx) {
			return
		}
	}
}

// Kill SIGKILLs the live worker process with this pid — the chaos
// hook for the CI smoke job. It reports false, signalling nothing, if
// the set runs no such process.
func (p *ProcSet) Kill(pid int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cmd := range p.live {
		if cmd.Process != nil && cmd.Process.Pid == pid {
			if err := cmd.Process.Kill(); err != nil {
				return false
			}
			if p.logf != nil {
				p.logf("fleet: chaos-killed worker pid %d", pid)
			}
			return true
		}
	}
	return false
}

// Wait blocks until every supervision loop has stopped (after the
// spawn context is cancelled).
func (p *ProcSet) Wait() { p.wg.Wait() }

// errChaosKilled ends a connection whose worker a chaos kill struck.
var errChaosKilled = errors.New("fleet: worker chaos-killed")

// KillAfterFirstBatch wraps a coordinator-side worker connection so a
// process-level chaos kill lands on a live lease. It reads each frame
// ahead of the coordinator. When the worker's first batch is not its
// final one, it passes that batch on and asks claim for a kill of the
// pid the worker's hello named; the caller signals the process. If
// claim grants it, the connection fails from the coordinator's next
// read on: whatever the worker streamed after that batch is lost with
// it, so the shard is released at the first batch's checkpoint and its
// successor fast-forwards past it, however far the worker got before
// the signal landed. A worker streams a short shard faster than any
// poll of the merged ops, which is why the strike follows its frames.
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
