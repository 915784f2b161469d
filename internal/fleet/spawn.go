package fleet

import (
	"context"
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

// KillOne SIGKILLs one live worker process — the chaos hook for the
// CI smoke job. Returns false if none is running.
func (p *ProcSet) KillOne() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cmd := range p.live {
		if cmd.Process != nil {
			if err := cmd.Process.Kill(); err == nil {
				if p.logf != nil {
					p.logf("fleet: chaos-killed worker pid %d", cmd.Process.Pid)
				}
				return true
			}
		}
	}
	return false
}

// Wait blocks until every supervision loop has stopped (after the
// spawn context is cancelled).
func (p *ProcSet) Wait() { p.wg.Wait() }
