// Package chaos is a seeded, deterministic fault-injection engine for
// the fleet observatory's transport and checkpoint store. An Engine
// wraps io.ReadWriteCloser connections; each Read and Write consults a
// splitmix64-derived schedule — a pure function of (engine seed,
// connection id, direction, per-direction operation index) — and
// injects one of the modelled faults: single-bit corruption anywhere
// in the frame (length, type, payload or checksum), truncated writes,
// duplicated frames, delays, mid-frame connection resets, and stalled
// reads. A separate hook corrupts checkpoint-state bytes on their way
// to disk (torn prefixes and bit flips), simulating partial writes.
//
// Determinism is the point: the same seed against the same sequence of
// I/O operations yields byte-identical fault schedules (Log), so chaos
// campaigns are replayable and failures are diagnosable. The engine
// knows nothing about the fleet wire protocol — it corrupts opaque
// byte streams — and the fleet hardening knows nothing about the
// engine (it accepts any conn wrapper), keeping the fault model and
// the recovery machinery independently testable.
package chaos

import (
	"io"
	"sync"
	"time"
)

// Fault enumerates the injectable fault kinds.
type Fault uint8

const (
	// None: the operation passes through untouched.
	None Fault = iota
	// BitFlip corrupts one bit of the data in flight (write: the bytes
	// hitting the wire; read: the bytes returned to the caller).
	BitFlip
	// Truncate writes only a prefix of the frame and severs the
	// connection — a torn write. On reads it delivers the data and then
	// severs, so the next read observes a mid-stream cut.
	Truncate
	// Duplicate writes the frame twice — double delivery.
	Duplicate
	// Delay sleeps Config.Delay before the operation.
	Delay
	// Reset severs the connection instead of performing the operation.
	Reset
	// Stall sleeps Config.Stall before the operation — long enough to
	// trip per-frame deadlines and lease timeouts.
	Stall
)

var faultNames = [...]string{"none", "bitflip", "truncate", "duplicate", "delay", "reset", "stall"}

func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return "unknown"
}

// Dir is the operation direction a fault was scheduled on.
type Dir uint8

const (
	DirWrite Dir = 1
	DirRead  Dir = 2
	DirState Dir = 3
)

func (d Dir) String() string {
	switch d {
	case DirWrite:
		return "write"
	case DirRead:
		return "read"
	case DirState:
		return "state"
	}
	return "unknown"
}

// Config sets the fault schedule. Rates are per-65536 chances rolled
// independently on every I/O operation; they are cumulative, so the
// sum must stay ≤ 65536.
type Config struct {
	// Seed roots the splitmix64 schedule. Same seed + same operation
	// sequence ⇒ same faults.
	Seed uint64

	BitFlipPer65536   int
	TruncatePer65536  int
	DuplicatePer65536 int
	DelayPer65536     int
	ResetPer65536     int
	StallPer65536     int

	// StatePer65536 is the corruption chance per checkpoint-state
	// write handed to CorruptState.
	StatePer65536 int

	// Delay and Stall are the sleep lengths for those faults.
	Delay time.Duration
	Stall time.Duration
}

// Aggressive is the test/bench profile: roughly one operation in five
// is faulted, stalls long enough to trip sub-second deadlines.
func Aggressive(seed uint64) Config {
	return Config{
		Seed:              seed,
		BitFlipPer65536:   4000,
		TruncatePer65536:  1500,
		DuplicatePer65536: 3000,
		DelayPer65536:     1500,
		ResetPer65536:     1500,
		StallPer65536:     800,
		StatePer65536:     20000,
		Delay:             2 * time.Millisecond,
		Stall:             400 * time.Millisecond,
	}
}

// splitmix64 is the same mixer the soak layer uses for seed
// derivation: one pass is a full-avalanche permutation, so chaining it
// over (seed, conn, dir, op) gives independent per-operation rolls.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide is the pure schedule: which fault (if any) hits operation op
// of direction dir on connection conn, plus argument bits for fault
// parameters (bit offsets, truncation points).
func (cfg Config) decide(conn uint64, dir Dir, op uint64) (Fault, uint64) {
	h := splitmix64(cfg.Seed)
	h = splitmix64(h ^ conn)
	h = splitmix64(h ^ uint64(dir))
	h = splitmix64(h ^ op)
	roll := int(h & 0xffff)
	arg := h >> 16
	for _, fr := range [...]struct {
		f    Fault
		rate int
	}{
		{BitFlip, cfg.BitFlipPer65536},
		{Truncate, cfg.TruncatePer65536},
		{Duplicate, cfg.DuplicatePer65536},
		{Delay, cfg.DelayPer65536},
		{Reset, cfg.ResetPer65536},
		{Stall, cfg.StallPer65536},
	} {
		if roll < fr.rate {
			return fr.f, arg
		}
		roll -= fr.rate
	}
	return None, arg
}

// Record is one injected fault in the engine's log.
type Record struct {
	Conn  uint64 `json:"conn"`
	Dir   string `json:"dir"`
	Op    uint64 `json:"op"`
	Fault string `json:"fault"`
	// Arg is the schedule's argument bits (bit offset, cut point).
	Arg uint64 `json:"arg"`
}

// logCap bounds the engine's fault log, so a long-running chaos
// campaign holds at most 4096 records however many faults it injects.
const logCap = 4096

// Engine owns one fault schedule, the log of the first faults it
// injected (at most 4096), and per-kind counts of all of them. Safe for
// concurrent use.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	log      []Record
	counts   [len(faultNames)]int
	nextConn uint64
	stateOps uint64
}

// New builds an engine from a schedule config.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// Seed returns the engine's schedule seed.
func (e *Engine) Seed() uint64 { return e.cfg.Seed }

// Wrap returns rwc with the engine's fault schedule applied to every
// Read and Write. Connection ids are assigned in Wrap order, so a
// deterministic sequence of Wrap calls keeps the schedule replayable.
func (e *Engine) Wrap(rwc io.ReadWriteCloser) io.ReadWriteCloser {
	e.mu.Lock()
	e.nextConn++
	id := e.nextConn
	e.mu.Unlock()
	return &Conn{eng: e, id: id, under: rwc}
}

func (e *Engine) record(conn uint64, dir Dir, op uint64, f Fault, arg uint64) {
	e.mu.Lock()
	if len(e.log) < logCap {
		e.log = append(e.log, Record{Conn: conn, Dir: dir.String(), Op: op, Fault: f.String(), Arg: arg})
	}
	e.counts[f]++
	e.mu.Unlock()
}

// Log returns a copy of the injected-fault log, in injection order.
// The log is capped: it holds the first 4096 faults (logCap), while
// Injected and Faults keep counting every one.
func (e *Engine) Log() []Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Record(nil), e.log...)
}

// Faults returns injected-fault counts by kind name, for the kinds
// injected at least once.
func (e *Engine) Faults() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int)
	for f, n := range e.counts {
		if n > 0 {
			out[Fault(f).String()] = n
		}
	}
	return out
}

// Injected returns the total number of injected faults.
func (e *Engine) Injected() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, c := range e.counts {
		n += c
	}
	return n
}

// CorruptState is the checkpoint-store fault hook: given the bytes a
// coordinator is about to persist, it either passes them through or —
// per the schedule — returns a torn prefix or a bit-flipped copy,
// simulating a crash mid-write or silent media corruption. Wire it as
// the coordinator's PersistTransform.
func (e *Engine) CorruptState(b []byte) []byte {
	e.mu.Lock()
	op := e.stateOps
	e.stateOps++
	e.mu.Unlock()
	// The state schedule rolls once against StatePer65536 (the total
	// corruption rate); the remaining bits pick the corruption shape.
	h := splitmix64(splitmix64(splitmix64(e.cfg.Seed)^uint64(DirState)) ^ op)
	if int(h&0xffff) >= e.cfg.StatePer65536 || len(b) == 0 {
		return b
	}
	arg := h >> 16
	out := append([]byte(nil), b...)
	if arg&1 == 0 {
		// Torn write: only a prefix made it to disk.
		cut := int(arg>>1) % len(out)
		out = out[:cut]
		e.record(0, DirState, op, Truncate, arg)
	} else {
		bit := int(arg>>1) % (len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		e.record(0, DirState, op, BitFlip, arg)
	}
	return out
}

// Conn applies the engine's schedule to one wrapped connection. The
// per-direction operation counters make the schedule independent of
// cross-connection interleaving: the nth write on connection k is
// faulted identically regardless of what other connections do.
type Conn struct {
	eng   *Engine
	id    uint64
	under io.ReadWriteCloser

	mu       sync.Mutex
	writeOps uint64
	readOps  uint64
}

// Write consults the schedule, then performs (a possibly corrupted
// version of) the write. BitFlip corrupts the bytes but reports
// success — the sender believes the frame was delivered intact.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	op := c.writeOps
	c.writeOps++
	c.mu.Unlock()
	f, arg := c.eng.cfg.decide(c.id, DirWrite, op)
	switch f {
	case BitFlip:
		if len(p) > 0 {
			c.eng.record(c.id, DirWrite, op, f, arg)
			q := append([]byte(nil), p...)
			bit := int(arg) % (len(q) * 8)
			q[bit/8] ^= 1 << (bit % 8)
			if _, err := c.under.Write(q); err != nil {
				return 0, err
			}
			return len(p), nil
		}
	case Truncate:
		if len(p) > 1 {
			c.eng.record(c.id, DirWrite, op, f, arg)
			cut := 1 + int(arg)%(len(p)-1)
			_, _ = c.under.Write(p[:cut])
			c.under.Close()
			return cut, io.ErrShortWrite
		}
	case Duplicate:
		c.eng.record(c.id, DirWrite, op, f, arg)
		if _, err := c.under.Write(p); err != nil {
			return 0, err
		}
		return c.under.Write(p)
	case Delay:
		c.eng.record(c.id, DirWrite, op, f, arg)
		time.Sleep(c.eng.cfg.Delay)
	case Stall:
		c.eng.record(c.id, DirWrite, op, f, arg)
		time.Sleep(c.eng.cfg.Stall)
	case Reset:
		c.eng.record(c.id, DirWrite, op, f, arg)
		c.under.Close()
		return 0, io.ErrClosedPipe
	}
	return c.under.Write(p)
}

// Read consults the schedule, then performs the read. BitFlip corrupts
// the returned bytes; Truncate delivers the data then severs the
// connection; Stall and Delay sleep first — long stalls are what trip
// frame deadlines and lease timeouts downstream.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	op := c.readOps
	c.readOps++
	c.mu.Unlock()
	f, arg := c.eng.cfg.decide(c.id, DirRead, op)
	switch f {
	case Delay:
		c.eng.record(c.id, DirRead, op, f, arg)
		time.Sleep(c.eng.cfg.Delay)
	case Stall:
		c.eng.record(c.id, DirRead, op, f, arg)
		time.Sleep(c.eng.cfg.Stall)
	case Reset:
		c.eng.record(c.id, DirRead, op, f, arg)
		c.under.Close()
		return 0, io.ErrClosedPipe
	}
	n, err := c.under.Read(p)
	switch f {
	case BitFlip:
		if n > 0 {
			c.eng.record(c.id, DirRead, op, f, arg)
			bit := int(arg) % (n * 8)
			p[bit/8] ^= 1 << (bit % 8)
		}
	case Truncate:
		if err == nil {
			c.eng.record(c.id, DirRead, op, f, arg)
			c.under.Close()
		}
	}
	return n, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.under.Close() }

// SetReadDeadline forwards to the underlying connection when it
// supports deadlines (net.Conn, net.Pipe), so per-frame deadlines keep
// working through the chaos layer.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if d, ok := c.under.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// SetWriteDeadline forwards to the underlying connection when it
// supports deadlines.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if d, ok := c.under.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(t)
	}
	return nil
}
