// Package soak is the latency observatory's workload engine: it drives
// long randomized workloads against the functional kernel — mixed IPC,
// endpoint deletion with queued waiters, badged aborts, object
// retyping, address-space churn — with timer interrupts armed at
// randomized phases, and records every interrupt-response sample into
// per-source histograms attributed to the kernel operation in progress
// when the IRQ latched.
//
// A soak is seeded and deterministic: the same Config produces the
// same operation sequence, the same simulated-cycle timeline and the
// same latency distribution, so snapshots golden-test byte-for-byte.
// Runs are resumable — a Runner steps in increments and can be driven
// until an op budget or a wall-clock deadline is reached.
//
// A bound sentinel (sentinel.go) checks each sample live against the
// computed WCET interrupt-response bound from the analysis pipeline
// and dumps a flight-recorder capture of the trailing trace window on
// a violation or a new observed maximum within a configurable margin.
package soak

import (
	"fmt"
	"math/rand"

	"verikern/internal/arch"
	"verikern/internal/kernel"
	"verikern/internal/kobj"
	"verikern/internal/measure"
	"verikern/internal/obs"
)

// Config parameterises one soak run. Its JSON encoding is the fleet
// wire spec (fleet.Spec) and keys persisted fleet checkpoints, so a
// new field needs omitempty to leave existing encodings unchanged
// (fleet's TestSpecIdentityPinned pins them).
type Config struct {
	// Label names the configuration (e.g. "benno+preempt+pinned").
	Label string `json:"label"`
	// Arch names the hardware backend (internal/arch registry) that
	// the sentinel bound and the seed derivation run against; empty
	// selects the default ARM1136 backend. The backend id is mixed into
	// every derived seed (measure.ArchSeed), so a two-backend sweep
	// sharing one Seed drives each timing model with a distinct op
	// stream.
	Arch string `json:"arch,omitempty"`
	// ConfigKey is the konfig lattice-point hash identifying the full
	// kernel+hardware configuration (konfig.Point.Hash); empty for
	// ad-hoc configs. It is stamped into the merged snapshot and every
	// flight capture, and carried by the fleet wire protocol so batches
	// and persisted checkpoints from a different configuration are
	// refused at merge time.
	ConfigKey string `json:"config_key,omitempty"`
	// Seed makes the workload reproducible; workers derive disjoint
	// sub-seeds from it.
	Seed uint64 `json:"seed"`
	// Ops is the total operation budget across all workers.
	Ops uint64 `json:"ops"`
	// Workers is the number of independent kernel instances driven in
	// parallel (each deterministic in isolation; results merge in
	// worker order). Defaults to 1.
	Workers int `json:"workers"`
	// Kernel is the functional-kernel configuration under soak.
	Kernel kernel.Config `json:"kernel"`
	// Pinned selects the L1 way-pinned interrupt path when computing
	// the WCET bound for the sentinel.
	Pinned bool `json:"pinned,omitempty"`
	// BoundCycles is the WCET interrupt-response bound the sentinel
	// checks samples against. Zero means "compute it" via
	// ComputeBound (Run does this once per config).
	BoundCycles uint64 `json:"bound_cycles,omitempty"`
	// MarginPercent arms the near-bound capture: a new observed
	// maximum within this percentage of the bound takes a flight
	// capture even without a violation. Default 10.
	MarginPercent float64 `json:"margin_percent,omitempty"`
	// MaxCaptures caps the per-worker capture count. Default 4.
	MaxCaptures int `json:"max_captures,omitempty"`
	// CaptureNewMax arms the flight recorder on every new observed
	// maximum latency, regardless of the bound margin — the directed
	// probe's mode, where each fitness improvement is evidence worth
	// keeping. Off by default (the passive soak captures only
	// violations and near-bound maxima).
	CaptureNewMax bool `json:"capture_new_max,omitempty"`
}

// WithDefaults returns the config with every zero field resolved to
// its documented default — the exact config a Runner executes. The
// fleet layer applies it on both ends of the wire so a coordinator's
// merged BoundStatus (margin, bound) matches what each worker ran.
func (c Config) WithDefaults() Config {
	if c.Label == "" {
		c.Label = "soak"
	}
	if c.Ops == 0 {
		c.Ops = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MarginPercent == 0 {
		c.MarginPercent = 10
	}
	if c.MaxCaptures == 0 {
		c.MaxCaptures = 4
	}
	return c
}

// Fixed per-worker resources of every Runner.
const (
	// ringCap is the tracer ring capacity.
	ringCap = 4096
	// flightEvents is how many trailing events a flight-recorder
	// capture preserves.
	flightEvents = 64
	// poolThreads is the reusable thread-pool size. The pool is
	// allocated once at boot — long soaks must not grow the
	// (never-reclaimed) untyped watermark per op.
	poolThreads = 8
	// allocReserveBytes stops allocating op kinds once the root
	// untyped's free space falls below it, so arbitrarily long soaks
	// degrade to non-allocating churn instead of failing.
	allocReserveBytes = 8 << 20
)

// OpKind names one operation driver of the workload vocabulary. The
// passive soak picks kinds by weighted random draw (pickOp); the
// directed probe drives chosen kinds deliberately via RunOp, with
// Params pinning the knobs the soak would randomize.
type OpKind int

// The workload vocabulary.
const (
	// OpIPC is a send/receive rendezvous on the persistent endpoint.
	OpIPC OpKind = iota
	// OpReplyRecv exercises the combined reply-and-receive path.
	OpReplyRecv
	// OpEndpointChurn queues badged waiters, revokes the badge and
	// deletes the endpoint — the paper's adversarial deletion scenario.
	OpEndpointChurn
	// OpRetype creates frames through the chunked preemptible clear.
	OpRetype
	// OpVSpace builds and tears down an address space.
	OpVSpace
	// OpCapOps drives the constant-time capability operations plus a
	// subtree revocation.
	OpCapOps
	// OpThreadCtl drives TCB invocations on a pool thread.
	OpThreadCtl
	// OpSignal drives the notification and WaitIRQ paths.
	OpSignal
	// OpYield is a bare scheduling pass.
	OpYield
	// OpIdle burns an idle window.
	OpIdle
	// OpDeepIPC sends through an adversarially deep capability space —
	// a radix-1 CNode chain of Params.DecodeDepth levels (Fig. 7), so
	// the decode loop runs once per address bit. Not part of the
	// random rotation; the directed probe drives it via RunOp.
	OpDeepIPC
	// NumOpKinds bounds the enum.
	NumOpKinds
)

// String returns the op-kind name.
func (k OpKind) String() string {
	switch k {
	case OpIPC:
		return "ipc"
	case OpReplyRecv:
		return "reply-recv"
	case OpEndpointChurn:
		return "endpoint-churn"
	case OpRetype:
		return "retype"
	case OpVSpace:
		return "vspace"
	case OpCapOps:
		return "cap-ops"
	case OpThreadCtl:
		return "thread-ctl"
	case OpSignal:
		return "signal"
	case OpYield:
		return "yield"
	case OpIdle:
		return "idle"
	case OpDeepIPC:
		return "deep-ipc"
	default:
		return "unknown"
	}
}

// Params pins workload knobs the soak otherwise randomizes. A zero
// value for any field keeps the soak's default random draw (and its
// exact rng stream), so the passive soak is Params{} throughout; the
// directed probe sets fields from its search genome.
type Params struct {
	// MsgLen pins the IPC message length (OpIPC). 0 draws 0–119.
	MsgLen int
	// Waiters pins the endpoint queue depth (OpEndpointChurn). 0 draws
	// 2–6. Depth is effectively capped by the pool size (Runner.Pool):
	// each waiter blocks one pool thread.
	Waiters int
	// Badges spreads the churn queue across this many distinct badges
	// (OpEndpointChurn), each revoked in turn. 0 or 1 mints a single
	// badge, as the soak does.
	Badges int
	// RetypeBits pins the frame size for OpRetype. 0 draws 12–16
	// (4–64 KiB).
	RetypeBits uint8
	// RetypeCount pins how many frames one OpRetype creates (the
	// clear-loop length and chunk phase). 0 means 1.
	RetypeCount int
	// TimerPhase pins armTimer's raise phase in cycles from "now".
	// 0 draws 100–20,099.
	TimerPhase uint64
	// DecodeDepth pins the cap-decode chain length for OpDeepIPC
	// (1–32 radix-1 CNode levels). 0 means 11, the paper's §6.1
	// worst-case decode count.
	DecodeDepth int
}

// subSeed derives worker w's private seed from the campaign seed with
// a splitmix64 finaliser, so workers draw from disjoint, well-mixed
// sequences.
func subSeed(seed uint64, w int) int64 {
	return int64(measure.SplitMix64(seed + uint64(w)*0x9E3779B97F4A7C15))
}

// Runner drives one worker's kernel instance. It is single-goroutine
// and resumable: Step executes a batch of operations and may be called
// repeatedly until the desired budget is spent.
type Runner struct {
	cfg    Config
	index  int
	k      *kernel.Kernel
	tracer *obs.Tracer
	sent   *sentinel
	rng    *rand.Rand

	adv  *kobj.TCB // driver thread, performs most invocations
	vs   *kobj.TCB // dedicated address-space guinea pig
	pool []*kobj.TCB

	epAddr   uint32 // persistent rendezvous endpoint
	ntfnAddr uint32 // persistent notification
	irqAddr  uint32 // IRQ-handler notification cap

	// Deep-decode machinery, built lazily on the first OpDeepIPC so
	// the default rng stream and watermark are untouched by passive
	// soaks: a dedicated sender thread plus one cached radix-1 CNode
	// chain per requested depth, all leading to the persistent
	// endpoint.
	deep   *kobj.TCB
	chains map[int]deepChain

	params Params
	ops    uint64
}

// deepChain is one cached adversarial cap space: a radix-1 CNode chain
// whose decode traverses `levels` CNodes to reach the persistent
// endpoint.
type deepChain struct {
	root kobj.Cap
	addr uint32
}

// NewRunner boots a kernel for worker `index` of the configuration and
// prepares its thread pool and persistent objects. The configuration
// must already carry a resolved BoundCycles (Run fills it in; direct
// Runner users may leave it zero to disable the sentinel's bound
// check).
func NewRunner(cfg Config, index int) (*Runner, error) {
	cfg = cfg.WithDefaults()
	backend, err := arch.Lookup(cfg.Arch)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	// The backend identity folds into the campaign seed root before
	// any derivation (identity for the default ARM1136 backend), so
	// per-backend soaks sharing a seed label draw distinct streams.
	seedRoot := measure.ArchSeed(cfg.Seed, backend)
	k, err := kernel.New(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTracer(ringCap)
	k.SetTracer(tr)
	r := &Runner{
		cfg:    cfg,
		index:  index,
		k:      k,
		tracer: tr,
		rng:    rand.New(rand.NewSource(subSeed(seedRoot, index))),
	}
	r.sent = newSentinel(tr, cfg.BoundCycles, cfg.MarginPercent, cfg.MaxCaptures, cfg.CaptureNewMax)
	// Stamp the capture identity up front: a fleet-level violation dump
	// must name the shard and campaign seed that produced it even when
	// the capture crosses the wire without the Runner.
	r.sent.worker = index
	r.sent.seed = cfg.Seed
	r.sent.configKey = cfg.ConfigKey
	r.sent.ops = &r.ops
	tr.SetSampleHook(r.sent.sample)

	if r.adv, err = k.CreateThread(fmt.Sprintf("soak%d/adv", index), 128); err != nil {
		return nil, err
	}
	k.StartThread(r.adv)
	if r.vs, err = k.CreateThread(fmt.Sprintf("soak%d/vs", index), 64); err != nil {
		return nil, err
	}
	k.StartThread(r.vs)
	r.pool = make([]*kobj.TCB, 0, poolThreads)
	for i := 0; i < poolThreads; i++ {
		w, err := k.CreateThread(fmt.Sprintf("soak%d/w%d", index, i), uint8(40+i%32))
		if err != nil {
			return nil, err
		}
		k.StartThread(w)
		r.pool = append(r.pool, w)
	}
	eps, err := k.CreateObjects(r.adv, kobj.TypeEndpoint, 0, 1)
	if err != nil {
		return nil, err
	}
	r.epAddr = eps[0]
	ntfns, err := k.CreateObjects(r.adv, kobj.TypeNotification, 0, 2)
	if err != nil {
		return nil, err
	}
	r.ntfnAddr, r.irqAddr = ntfns[0], ntfns[1]
	if err := k.RegisterIRQHandler(r.adv, r.irqAddr); err != nil {
		return nil, err
	}
	return r, nil
}

// Kernel exposes the runner's kernel instance (tests inspect it).
func (r *Runner) Kernel() *kernel.Kernel { return r.k }

// Tracer exposes the runner's tracer for aggregation.
func (r *Runner) Tracer() *obs.Tracer { return r.tracer }

// Ops returns how many workload operations have been executed.
func (r *Runner) Ops() uint64 { return r.ops }

// SetParams pins workload knobs for subsequent operations; a zero
// field keeps the default random draw. The directed probe swaps Params
// per candidate between RunOp calls.
func (r *Runner) SetParams(p Params) { r.params = p }

// MaxObserved returns the worst interrupt-response latency the
// sentinel has seen so far — the probe's fitness signal.
func (r *Runner) MaxObserved() uint64 { return r.sent.maxSeen }

// SentinelStatus returns the live bound-checker's standing verdict.
func (r *Runner) SentinelStatus() obs.BoundStatus { return r.sent.status() }

// Captures returns the flight-recorder dumps taken so far, each
// stamped with the worker index, campaign seed and op index that
// produced it.
func (r *Runner) Captures() []Capture { return r.sent.captures }

// ArmTimer programs the one-shot timer exactly phase cycles into the
// future, bypassing the randomized draw — the probe's direct control
// over where in an operation the IRQ latches.
func (r *Runner) ArmTimer(phase uint64) { r.k.SetTimer(r.k.Now() + phase) }

// Driver returns the runner's driver thread — the invoker for probe-
// issued kernel calls outside the op vocabulary (e.g. suspending pool
// threads to thin the ready queue).
func (r *Runner) Driver() *kobj.TCB { return r.adv }

// Pool returns the reusable worker threads backing the op vocabulary.
func (r *Runner) Pool() []*kobj.TCB { return r.pool }

// freeThread returns a runnable pool thread, preferring a rotating
// start point so work spreads across the pool. Threads left blocked by
// an in-flight wait are skipped.
func (r *Runner) freeThread() (*kobj.TCB, error) {
	n := len(r.pool)
	start := r.rng.Intn(n)
	for i := 0; i < n; i++ {
		w := r.pool[(start+i)%n]
		if w.State.Runnable() {
			return w, nil
		}
	}
	return nil, fmt.Errorf("soak: no runnable pool thread")
}

// armTimer programs a one-shot timer a randomized phase into the
// future, so the IRQ latches at an unpredictable point of the next
// operation — the scatter that populates every per-source histogram.
func (r *Runner) armTimer() {
	phase := r.params.TimerPhase
	if phase == 0 {
		// Phases span sub-entry (latches immediately at the next
		// kernel look) to beyond a long walk (latches during a later
		// op or an idle window).
		phase = uint64(100 + r.rng.Intn(20_000))
	}
	r.k.SetTimer(r.k.Now() + phase)
}

// canAlloc reports whether allocating op kinds may still run.
func (r *Runner) canAlloc(need uint32) bool {
	return r.k.RootUntyped().FreeBytes() >= need+allocReserveBytes
}

// Step executes n workload operations. Errors are fatal to the run —
// the workload only issues invocations that must succeed, so an error
// is a kernel bug (or resource-model misuse), not noise.
func (r *Runner) Step(n int) error {
	for i := 0; i < n; i++ {
		if r.rng.Float64() < 0.7 {
			r.armTimer()
		}
		if err := r.oneOp(); err != nil {
			return fmt.Errorf("soak %s worker %d op %d: %w", r.cfg.Label, r.index, r.ops, err)
		}
		r.ops++
		if err := r.k.InvariantFailure(); err != nil {
			return fmt.Errorf("soak %s worker %d op %d: %w", r.cfg.Label, r.index, r.ops, err)
		}
	}
	return nil
}

// oneOp picks and runs one weighted random operation.
func (r *Runner) oneOp() error { return r.RunOp(r.pickOp()) }

// pickOp draws the next operation kind with the soak's weights.
func (r *Runner) pickOp() OpKind {
	switch p := r.rng.Intn(100); {
	case p < 25:
		return OpIPC
	case p < 35:
		return OpReplyRecv
	case p < 50:
		return OpEndpointChurn
	case p < 60:
		return OpRetype
	case p < 65:
		return OpVSpace
	case p < 72:
		return OpCapOps
	case p < 79:
		return OpThreadCtl
	case p < 89:
		return OpSignal
	case p < 94:
		return OpYield
	default:
		return OpIdle
	}
}

// RunOp executes one operation of the given kind under the current
// Params. It is the mutation vocabulary of the directed probe: the
// probe selects kinds and knobs deliberately where Step draws them.
func (r *Runner) RunOp(kind OpKind) error {
	switch kind {
	case OpIPC:
		return r.opIPC()
	case OpReplyRecv:
		return r.opReplyRecv()
	case OpEndpointChurn:
		return r.opEndpointChurn()
	case OpRetype:
		return r.opRetype()
	case OpVSpace:
		return r.opVSpace()
	case OpCapOps:
		return r.opCapOps()
	case OpThreadCtl:
		return r.opThreadCtl()
	case OpSignal:
		return r.opSignal()
	case OpYield:
		r.k.Yield()
		return nil
	case OpIdle:
		r.k.Idle(uint64(500 + r.rng.Intn(5_000)))
		return nil
	case OpDeepIPC:
		return r.opDeepIPC()
	default:
		return fmt.Errorf("soak: unknown op kind %d", kind)
	}
}

// opIPC is a send/receive rendezvous on the persistent endpoint: a
// pool thread queues a message, the driver receives it. Both ends are
// runnable afterwards, so the pool never leaks blocked threads.
func (r *Runner) opIPC() error {
	w, err := r.freeThread()
	if err != nil {
		return err
	}
	msgLen := r.params.MsgLen
	if msgLen == 0 {
		msgLen = r.rng.Intn(120)
	}
	if err := r.k.Send(w, r.epAddr, msgLen, nil, false); err != nil {
		return err
	}
	return r.k.Recv(r.adv, r.epAddr)
}

// ensureDeep builds (once per depth) the Fig. 7 decode chain
// (kobj.Manager.DecodeChain) of `levels` levels whose leaf is a cap to
// the persistent endpoint, plus the dedicated sender thread. CNodes
// come straight off the object manager — they carry no caps of their
// own, so the cap-derivation bookkeeping stays clean.
func (r *Runner) ensureDeep(levels int) error {
	if r.deep == nil {
		d, err := r.k.CreateThread(fmt.Sprintf("soak%d/deep", r.index), 72)
		if err != nil {
			return err
		}
		r.k.StartThread(d)
		r.deep = d
		r.chains = make(map[int]deepChain)
	}
	if _, ok := r.chains[levels]; ok {
		return nil
	}
	res, err := kobj.Decode(r.adv.CSpaceRoot, r.epAddr)
	if err != nil {
		return err
	}
	root, addr, err := r.k.Objects().DecodeChain(r.k.RootUntyped(), res.Slot.Cap, levels,
		func(l int) string { return fmt.Sprintf("soak%d/deep%d-l%d", r.index, levels, l) })
	if err != nil {
		return err
	}
	r.chains[levels] = deepChain{root: root, addr: addr}
	return nil
}

// opDeepIPC sends through the deep chain — the decode loop runs once
// per level, so a send pays up to 32 decode steps before the message
// queues — then the driver drains the endpoint through its ordinary
// one-level cap space.
func (r *Runner) opDeepIPC() error {
	levels := r.params.DecodeDepth
	if levels <= 0 {
		levels = 11 // the paper's §6.1 worst-case decode count
	}
	if levels > 32 {
		levels = 32
	}
	if _, built := r.chains[levels]; !built && !r.canAlloc(uint32(levels)<<6) {
		return r.opIPC()
	}
	if err := r.ensureDeep(levels); err != nil {
		return err
	}
	ch := r.chains[levels]
	r.deep.CSpaceRoot = ch.root
	msgLen := r.params.MsgLen
	if msgLen == 0 {
		msgLen = r.rng.Intn(120)
	}
	if err := r.k.Send(r.deep, ch.addr, msgLen, nil, false); err != nil {
		return err
	}
	return r.k.Recv(r.adv, r.epAddr)
}

// opReplyRecv exercises the combined reply-and-receive path (§6.1,
// including the SplitSendReceive preemption point when configured): a
// caller blocks awaiting a reply, a second sender is pre-queued so the
// receive phase completes without blocking the driver.
func (r *Runner) opReplyRecv() error {
	caller, err := r.freeThread()
	if err != nil {
		return err
	}
	if err := r.k.Call(caller, r.epAddr, r.rng.Intn(60), nil); err != nil {
		return err
	}
	next, err := r.freeThread()
	if err != nil {
		return err
	}
	if err := r.k.Send(next, r.epAddr, r.rng.Intn(60), nil, false); err != nil {
		return err
	}
	if err := r.k.Recv(r.adv, r.epAddr); err != nil {
		return err
	}
	return r.k.ReplyRecv(r.adv, r.epAddr)
}

// opEndpointChurn is the paper's adversarial deletion scenario (§3.3,
// §3.4): a fresh endpoint gathers badged waiters, the badge is revoked
// (aborting each queued IPC with a preemption point per waiter), the
// queue refills unbadged, and the endpoint is deleted (restarting each
// waiter likewise). All caps are deleted so CNode slots recycle; only
// the 16-byte endpoint itself stays behind on the watermark.
func (r *Runner) opEndpointChurn() error {
	if !r.canAlloc(16) {
		return r.opIPC()
	}
	eps, err := r.k.CreateObjects(r.adv, kobj.TypeEndpoint, 0, 1)
	if err != nil {
		return err
	}
	ep := eps[0]
	// The badge mix: one badge by default, Params.Badges distinct
	// badges under the probe, waiters distributed round-robin so a
	// revocation walks a queue interleaved with other-badge waiters.
	nb := r.params.Badges
	if nb < 1 {
		nb = 1
	}
	badges := make([]uint32, nb)
	badgedCaps := make([]uint32, nb)
	badges[0] = uint32(1 + r.rng.Intn(1<<16))
	for j := 1; j < nb; j++ {
		badges[j] = badges[0] + uint32(j)
	}
	for j, bg := range badges {
		c, err := r.k.MintBadgedCap(r.adv, ep, bg)
		if err != nil {
			return err
		}
		badgedCaps[j] = c
	}
	waiters := r.params.Waiters
	if waiters == 0 {
		waiters = 2 + r.rng.Intn(5)
	}
	for i := 0; i < waiters; i++ {
		w, err := r.freeThread()
		if err != nil {
			return err
		}
		if err := r.k.Send(w, badgedCaps[i%nb], 1, nil, false); err != nil {
			return err
		}
	}
	r.armTimer()
	// Badge revocation deletes every derived cap carrying the badge
	// (phase 1), including the minted cap itself, then aborts the
	// queued IPCs — no explicit cleanup of the minted caps is needed.
	for _, bg := range badges {
		if err := r.k.RevokeBadge(r.adv, ep, bg); err != nil {
			return err
		}
	}
	for i := 0; i < waiters; i++ {
		w, err := r.freeThread()
		if err != nil {
			return err
		}
		if err := r.k.Send(w, ep, 1, nil, false); err != nil {
			return err
		}
	}
	r.armTimer()
	return r.k.DeleteCap(r.adv, ep)
}

// opRetype creates frames (4–64 KiB by default, Params-pinnable) — the
// chunked, preemptible clear of §3.5 — then deletes the caps to
// recycle the slots.
func (r *Runner) opRetype() error {
	bits := r.params.RetypeBits
	if bits == 0 {
		bits = uint8(12 + r.rng.Intn(5)) // 4 KiB .. 64 KiB
	}
	count := r.params.RetypeCount
	if count < 1 {
		count = 1
	}
	if !r.canAlloc(uint32(count) << bits) {
		return r.opIPC()
	}
	frames, err := r.k.CreateObjects(r.adv, kobj.TypeFrame, bits, count)
	if err != nil {
		return err
	}
	for _, f := range frames {
		if err := r.k.DeleteCap(r.adv, f); err != nil {
			return err
		}
	}
	return nil
}

// opVSpace builds and tears down an address space on the dedicated
// vspace thread: page directory (with its non-preemptible kernel-
// window copy), page table and frame maps, unmap, then the §3.6
// deletion walk.
func (r *Runner) opVSpace() error {
	if !r.canAlloc((16 << 10) + (1 << 10) + (4 << 10)) {
		return r.opIPC()
	}
	pds, err := r.k.CreateObjects(r.adv, kobj.TypePageDirectory, 0, 1)
	if err != nil {
		return err
	}
	pts, err := r.k.CreateObjects(r.adv, kobj.TypePageTable, 0, 1)
	if err != nil {
		return err
	}
	frames, err := r.k.CreateObjects(r.adv, kobj.TypeFrame, 12, 1)
	if err != nil {
		return err
	}
	if err := r.k.AssignVSpace(r.vs, pds[0]); err != nil {
		return err
	}
	base := uint32(r.rng.Intn(256)) << 20 // a random 1 MiB region
	if err := r.k.MapPageTable(r.vs, pts[0], base); err != nil {
		return err
	}
	vaddr := base + uint32(r.rng.Intn(256))<<12
	if err := r.k.MapFrame(r.vs, frames[0], vaddr); err != nil {
		return err
	}
	if err := r.k.UnmapFrame(r.vs, frames[0]); err != nil {
		return err
	}
	r.armTimer()
	if err := r.k.DeleteVSpace(r.vs, pds[0]); err != nil {
		return err
	}
	if err := r.k.DeleteCap(r.adv, pts[0]); err != nil {
		return err
	}
	return r.k.DeleteCap(r.adv, frames[0])
}

// opCapOps exercises the constant-time capability operations plus a
// subtree revocation rooted at the persistent endpoint's cap.
func (r *Runner) opCapOps() error {
	cp, err := r.k.CopyCap(r.adv, r.epAddr, kobj.RightsAll)
	if err != nil {
		return err
	}
	mv, err := r.k.MoveCap(r.adv, cp)
	if err != nil {
		return err
	}
	if _, err := r.k.MintBadgedCap(r.adv, mv, uint32(1+r.rng.Intn(1<<8))); err != nil {
		return err
	}
	r.armTimer()
	// Revoking the persistent cap deletes the copy (and its badged
	// child) one step per preemption interval.
	return r.k.Revoke(r.adv, r.epAddr)
}

// opThreadCtl drives TCB invocations on a pool thread.
func (r *Runner) opThreadCtl() error {
	w, err := r.freeThread()
	if err != nil {
		return err
	}
	if err := r.k.SetPriority(r.adv, w, uint8(10+r.rng.Intn(100))); err != nil {
		return err
	}
	if err := r.k.Suspend(r.adv, w); err != nil {
		return err
	}
	return r.k.Resume(r.adv, w)
}

// opSignal drives the notification paths: signal+poll on the
// persistent notification, and — when an interrupt was serviced
// recently enough to have latched the handler notification — a WaitIRQ
// that consumes the pending signal without blocking.
func (r *Runner) opSignal() error {
	if err := r.k.SignalCap(r.adv, r.ntfnAddr); err != nil {
		return err
	}
	if _, err := r.k.PollCap(r.adv, r.ntfnAddr); err != nil {
		return err
	}
	if r.rng.Intn(2) == 0 {
		// Force an interrupt through an idle window so the handler
		// notification is pending, then consume it.
		r.k.SetTimer(r.k.Now() + 200)
		r.k.Idle(1_000)
		w, err := r.freeThread()
		if err != nil {
			return err
		}
		return r.k.WaitIRQ(w, r.irqAddr)
	}
	return nil
}
