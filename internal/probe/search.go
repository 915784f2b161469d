package probe

import (
	"fmt"
	"math"
	"math/rand"

	"verikern/internal/kobj"
	"verikern/internal/obs"
	"verikern/internal/soak"
)

// genome is one kernel-layer search candidate: which op to drive, the
// IRQ raise phase within it, and the workload knobs the soak otherwise
// randomizes. Every field is explicit (no zero-means-draw), so a
// genome's evaluation consumes a fixed slice of the runner's rng
// stream and the search is deterministic and resumable by seed.
type genome struct {
	Op          soak.OpKind
	Phase       uint64 // cycles from eval start to IRQ raise
	MsgLen      int
	Waiters     int
	Badges      int
	RetypeBits  uint8
	RetypeCount int
	DecodeDepth int
	// Sleepers suspends that many pool threads for the eval,
	// thinning the ready queue under the op.
	Sleepers int
}

func (g genome) String() string {
	return fmt.Sprintf("genome{op=%s phase=%d msg=%d waiters=%d badges=%d retype=%dx2^%d decode=%d sleepers=%d}",
		g.Op, g.Phase, g.MsgLen, g.Waiters, g.Badges, g.RetypeCount, g.RetypeBits, g.DecodeDepth, g.Sleepers)
}

// genomeOps is the mutation vocabulary: the soak's op drivers that can
// host an interrupt. Yield/Idle are omitted — their latency windows
// are trivially short.
var genomeOps = []soak.OpKind{
	soak.OpIPC, soak.OpReplyRecv, soak.OpEndpointChurn, soak.OpRetype,
	soak.OpVSpace, soak.OpCapOps, soak.OpThreadCtl, soak.OpSignal,
	soak.OpDeepIPC,
}

// sweepSeeds is the deterministic seeding list: the ops with the
// longest kernel paths paired with raise phases aimed at their worst
// windows, highest-priority first so even tiny budgets cover the
// known-adversarial structure. The 150–175k phases target the final
// chunk of opVSpace's page-directory clear (16 KiB at ~10.6k
// cycles/KiB), after whose last preemption poll the clear's tail,
// the retype bookkeeping and the non-preemptible kernel-window copy
// run back to back — the modernised kernel's longest window. Phase
// 200 latches the IRQ at the op's entry, which is the worst case for
// the non-preemptible kernels.
var sweepSeeds = []struct {
	op    soak.OpKind
	phase uint64
}{
	{soak.OpVSpace, 165_000},
	{soak.OpRetype, 200},
	{soak.OpEndpointChurn, 200},
	{soak.OpDeepIPC, 200},
	{soak.OpVSpace, 170_000},
	{soak.OpRetype, 2_000},
	{soak.OpReplyRecv, 200},
	{soak.OpVSpace, 150_000},
	{soak.OpEndpointChurn, 2_000},
	{soak.OpVSpace, 175_000},
	{soak.OpRetype, 8_000},
	{soak.OpVSpace, 8_000},
	{soak.OpDeepIPC, 1_000},
	{soak.OpVSpace, 100_000},
	{soak.OpRetype, 15_000},
	{soak.OpVSpace, 200},
	{soak.OpReplyRecv, 2_000},
	{soak.OpVSpace, 300_000},
	{soak.OpRetype, 40_000},
	{soak.OpEndpointChurn, 8_000},
	{soak.OpVSpace, 40_000},
}

const (
	minPhase = 50
	maxPhase = 2_000_000
	// maxRetypeBytes caps one retype's total clear length (count <<
	// bits) at the soak's own worst case, so the non-preemptible
	// clear of the nopreempt kernel stays inside its computed bound.
	maxRetypeBytes = 1 << 16
)

// kernelSearch drives the genome search against one live kernel.
type kernelSearch struct {
	rn      *soak.Runner
	rng     *rand.Rand
	pool    int
	metrics *obs.Metrics
}

// searchKernel runs the kernel-layer campaign: a deterministic sweep
// over op×phase seeds, then hill-climbing mutations of the best
// genome, all against one persistent runner whose sentinel checks
// every sample against the campaign's composed interrupt-response
// bound and captures the flight recorder on each new maximum.
func searchKernel(campaign soak.Config, m *obs.Metrics, seedRoot uint64, budget int) (Entry, obs.BoundStatus, []soak.Capture, error) {
	campaign.MaxCaptures = maxCaptures
	campaign.CaptureNewMax = true
	rn, err := soak.NewRunner(campaign, 0)
	if err != nil {
		return Entry{}, obs.BoundStatus{}, nil, err
	}
	s := &kernelSearch{
		rn:      rn,
		rng:     rand.New(rand.NewSource(int64(seedRoot) ^ 0x5DEECE66D)),
		pool:    len(rn.Pool()),
		metrics: m,
	}

	var best genome
	var bestFit uint64
	evals, improvements := 0, 0
	accept := func(g genome, fit uint64) {
		if evals == 1 || fit >= bestFit {
			if fit > bestFit {
				improvements++
				s.metrics.Add("probe.improvements", 1)
			}
			bestFit, best = fit, g
		}
	}

	// Phase 1: the seeding sweep, in priority order.
	sweepN := budget / 2
	if sweepN > len(sweepSeeds) {
		sweepN = len(sweepSeeds)
	}
	if sweepN < 1 {
		sweepN = 1
	}
	for i := 0; i < sweepN; i++ {
		g := s.clamp(genome{
			Op: sweepSeeds[i].op, Phase: sweepSeeds[i].phase,
			MsgLen: kobj.MaxMsgWords - 1, Waiters: s.pool - 2, Badges: 2,
			RetypeBits: 16, RetypeCount: 1, DecodeDepth: kobj.CapAddrBits,
		})
		fit, err := s.eval(g)
		if err != nil {
			return Entry{}, obs.BoundStatus{}, nil, fmt.Errorf("sweep %v: %w", g, err)
		}
		evals++
		accept(g, fit)
	}

	// Phase 2: hill-climb from the sweep's best, with occasional
	// random restarts to escape flat plateaus.
	for evals < budget {
		var g genome
		if s.rng.Float64() < 0.15 {
			g = s.random()
		} else {
			g = s.mutate(best)
		}
		fit, err := s.eval(g)
		if err != nil {
			return Entry{}, obs.BoundStatus{}, nil, fmt.Errorf("candidate %v: %w", g, err)
		}
		evals++
		accept(g, fit)
	}

	e := Entry{
		Name:         "irq-response",
		ObservedMax:  rn.MaxObserved(),
		BoundCycles:  campaign.BoundCycles,
		Tightness:    tightness(rn.MaxObserved(), campaign.BoundCycles),
		Evals:        evals,
		Improvements: improvements,
		Best:         best.String(),
	}
	return e, rn.SentinelStatus(), rn.Captures(), nil
}

// eval runs one genome: thin the ready queue, pin the workload knobs,
// arm the timer at the genome's phase, drive the op, then drain — any
// latched-but-unserviced IRQ is serviced (so its sample lands in this
// eval) and a still-armed timer is disarmed (so it cannot pollute the
// next eval's attribution). Fitness is the worst sample recorded
// during the eval.
func (s *kernelSearch) eval(g genome) (uint64, error) {
	k := s.rn.Kernel()
	drv := s.rn.Driver()
	slept := 0
	pool := s.rn.Pool()
	for _, w := range pool {
		if slept >= g.Sleepers {
			break
		}
		if !w.State.Runnable() {
			continue
		}
		if err := k.Suspend(drv, w); err != nil {
			return 0, err
		}
		slept++
	}
	s.rn.SetParams(soak.Params{
		MsgLen:      g.MsgLen,
		Waiters:     g.Waiters,
		Badges:      g.Badges,
		RetypeBits:  g.RetypeBits,
		RetypeCount: g.RetypeCount,
		TimerPhase:  g.Phase,
		DecodeDepth: g.DecodeDepth,
	})
	k.ResetMaxLatency()
	s.rn.ArmTimer(g.Phase)
	opErr := s.rn.RunOp(g.Op)
	for _, w := range pool {
		if slept == 0 {
			break
		}
		if w.State == kobj.ThreadInactive {
			if err := k.Resume(drv, w); err != nil {
				return 0, err
			}
			slept--
		}
	}
	k.Yield()             // service a latched-but-pending IRQ here, not next eval
	k.SetPeriodicTimer(0) // disarm a leftover one-shot
	s.metrics.Add("probe.evals", 1)
	s.metrics.Add("probe.kernel_evals", 1)
	if opErr != nil {
		return 0, opErr
	}
	if err := k.InvariantFailure(); err != nil {
		return 0, err
	}
	return k.MaxLatency(), nil
}

// random draws a fresh genome.
func (s *kernelSearch) random() genome {
	// Log-uniform phase across the full window.
	lo, hi := float64(minPhase), float64(maxPhase)
	ph := uint64(lo * math.Pow(hi/lo, s.rng.Float64()))
	return s.clamp(genome{
		Op:          genomeOps[s.rng.Intn(len(genomeOps))],
		Phase:       ph,
		MsgLen:      1 + s.rng.Intn(kobj.MaxMsgWords-1),
		Waiters:     1 + s.rng.Intn(s.pool),
		Badges:      1 + s.rng.Intn(4),
		RetypeBits:  uint8(12 + s.rng.Intn(5)),
		RetypeCount: 1 + s.rng.Intn(16),
		DecodeDepth: 1 + s.rng.Intn(kobj.CapAddrBits),
		Sleepers:    s.rng.Intn(s.pool / 2),
	})
}

// mutate perturbs one knob of the genome.
func (s *kernelSearch) mutate(g genome) genome {
	n := g
	switch s.rng.Intn(9) {
	case 0:
		n.Op = genomeOps[s.rng.Intn(len(genomeOps))]
	case 1:
		// Multiplicative phase step — scans across op-length scales.
		f := []float64{0.5, 0.8, 1.25, 2.0}[s.rng.Intn(4)]
		n.Phase = uint64(float64(g.Phase) * f)
	case 2:
		// Additive phase jitter — walks within a window.
		d := uint64(1 + s.rng.Intn(5_000))
		if s.rng.Intn(2) == 0 && g.Phase > d {
			n.Phase = g.Phase - d
		} else {
			n.Phase = g.Phase + d
		}
	case 3:
		n.MsgLen = 1 + s.rng.Intn(kobj.MaxMsgWords-1)
	case 4:
		n.Waiters = 1 + s.rng.Intn(s.pool)
	case 5:
		n.Badges = 1 + s.rng.Intn(4)
	case 6:
		n.RetypeBits = uint8(12 + s.rng.Intn(5))
		n.RetypeCount = 1 + s.rng.Intn(16)
	case 7:
		n.DecodeDepth = 1 + s.rng.Intn(kobj.CapAddrBits)
	case 8:
		n.Sleepers = s.rng.Intn(s.pool / 2)
	}
	return s.clamp(n)
}

// clamp forces a genome into the feasible region: phases in window,
// knobs within pool capacity (reply-recv needs two free threads on
// top of waiters and sleepers), retype clears capped at the soak's
// worst case so nopreempt bounds hold.
func (s *kernelSearch) clamp(g genome) genome {
	if g.Phase < minPhase {
		g.Phase = minPhase
	}
	if g.Phase > maxPhase {
		g.Phase = maxPhase
	}
	if g.MsgLen < 1 {
		g.MsgLen = 1
	}
	if g.MsgLen > kobj.MaxMsgWords-1 {
		g.MsgLen = kobj.MaxMsgWords - 1
	}
	if g.Sleepers < 0 {
		g.Sleepers = 0
	}
	if g.Sleepers > s.pool/2 {
		g.Sleepers = s.pool / 2
	}
	if g.Waiters < 1 {
		g.Waiters = 1
	}
	if g.Waiters > s.pool-g.Sleepers-2 {
		g.Waiters = s.pool - g.Sleepers - 2
		if g.Waiters < 1 {
			g.Waiters = 1
		}
	}
	if g.Badges < 1 {
		g.Badges = 1
	}
	if g.Badges > 4 {
		g.Badges = 4
	}
	if g.Badges > g.Waiters {
		g.Badges = g.Waiters
	}
	if g.RetypeBits < 12 {
		g.RetypeBits = 12
	}
	if g.RetypeBits > 16 {
		g.RetypeBits = 16
	}
	if g.RetypeCount < 1 {
		g.RetypeCount = 1
	}
	if max := maxRetypeBytes >> g.RetypeBits; g.RetypeCount > max {
		g.RetypeCount = max
	}
	if g.DecodeDepth < 1 {
		g.DecodeDepth = 1
	}
	if g.DecodeDepth > kobj.CapAddrBits {
		g.DecodeDepth = kobj.CapAddrBits
	}
	return g
}
