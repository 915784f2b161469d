// Command kzm-sim boots the functional kernel model and runs an
// adversarial mixed-criticality workload against it, reporting the
// interrupt-response latencies a real-time subsystem would see. It is
// the "live" counterpart of the static analysis in cmd/wcet: the same
// kernel designs, exercised rather than bounded.
//
// The workload mirrors the paper's threat model: untrusted best-effort
// tasks issue the kernel's longest-running operations (endpoint
// deletion with large queues, badge revocation, large-object creation,
// address-space teardown) while a periodic timer interrupt stands in
// for a hard real-time task's release.
//
// With -soak, kzm-sim instead becomes the latency observatory: a
// seeded randomized workload (mixed IPC, endpoint churn, badged
// aborts, retyping, address-space teardown) soaks the kernel with
// timer interrupts at randomized phases, attributing every response
// sample to the operation in progress and checking each against the
// computed WCET bound live. -serve exposes the results over HTTP
// (/metrics in Prometheus text format, /snapshot.json as stable JSON);
// -bench-out writes the full before/after configuration matrix as a
// BENCH_soak.json artifact.
//
// With -probe, kzm-sim becomes the adversarial worst-case prober: a
// directed search primes caches, pipeline and replacement state
// against each entry point's worst-case footprint and evolves
// workload genomes (op kind, IRQ raise phase, queue depths, badge
// mix, retype size, cap-decode depth) to maximize observed latency,
// then reports per-entry observed/bound tightness ratios across the
// preemption × pinning matrix. -tightness-out writes the matrix as a
// BENCH_tightness.json artifact.
//
// With -sweep, kzm-sim walks the konfig configuration lattice: every
// backend's feasible sub-lattice of paper features (scheduler
// generation, preemption sites, way pinning, clearing granularity, L2
// and branch-predictor enables) is analysed through the shared
// analysis cache and soaked deterministically, and the
// per-entry-point WCET-vs-throughput Pareto frontiers are written as a
// byte-stable BENCH_pareto.json artifact. The document is identical
// across runs and -sweep-workers counts for a fixed seed.
//
// Usage:
//
//	kzm-sim [-variant modern|original] [-waiters N] [-period CYCLES]
//	        [-trace out.json] [-verbose]
//	kzm-sim -soak <ops|duration> [-seed N] [-pinned] [-soak-workers N]
//	        [-serve :9090] [-bench-out BENCH_soak.json]
//	kzm-sim -probe [-probe-budget N] [-seed N]
//	        [-tightness-out BENCH_tightness.json]
//	kzm-sim -sweep [-sweep-workers N] [-sweep-ops N] [-seed N]
//	        [-sweep-out BENCH_pareto.json]
//	kzm-sim -fleet-coordinator ADDR -soak <ops> [-fleet-workers N]
//	        [-fleet-chaos-kill N] [-fleet-chaos SEED] [-fleet-verify]
//	        [-fleet-state F] [-serve :9090]
//	kzm-sim -fleet-worker ADDR
//	kzm-sim -fleet-bench -soak <ops> [-fleet-workers N]
//	        [-fleet-chaos-kill N] [-fleet-chaos SEED]
//	        [-fleet-out BENCH_fleet.json]
//
// With -fleet-coordinator, kzm-sim becomes the fleet observatory: the
// soak campaign is sharded across worker processes (spawned locally
// and/or attached over TCP with -fleet-worker), each streaming
// histogram deltas and flight captures back over a length-prefixed
// wire protocol. The coordinator merges them live — byte-identically
// to a single-process soak at the same seed, even across worker kills
// — and serves /metrics, /snapshot.json, /fleet.json and /debug/pprof
// on -serve. SIGTERM drains workers gracefully, flushing final
// batches before the terminal snapshot prints. -fleet-bench runs one
// in-process fleet campaign per backend instead, each checked against
// a single-process soak, and writes them as a BENCH_fleet.json
// artifact. In both modes -fleet-chaos-kill kills workers mid-campaign
// and -fleet-chaos wraps every worker connection in a seeded transport
// fault schedule; the merge stays byte-identical through both.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"verikern"
	"verikern/internal/arch"
	"verikern/internal/chaos"
	"verikern/internal/fleet"
	"verikern/internal/konfig"
	"verikern/internal/obs"
	"verikern/internal/soak"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kzm-sim: ")
	variantName := flag.String("variant", "modern", "kernel variant: modern or original")
	archName := flag.String("arch", "arm1136", "hardware backend: one of "+strings.Join(verikern.Architectures(), ", "))
	waiters := flag.Int("waiters", 256, "threads queued on the victim endpoint")
	period := flag.Uint64("period", 40_000, "timer interrupt period in cycles")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of kernel events")
	verbose := flag.Bool("verbose", false, "print per-phase detail")
	soakSpec := flag.String("soak", "", "run the latency observatory for an op count (e.g. 10000) or wall duration (e.g. 2s)")
	seed := flag.Uint64("seed", 42, "soak workload seed")
	pinned := flag.Bool("pinned", false, "check soak samples against the L1 way-pinned WCET bound")
	soakWorkers := flag.Int("soak-workers", 2, "parallel kernel instances per soak")
	serveAddr := flag.String("serve", "", "serve /metrics and /snapshot.json on this address after the soak")
	benchOut := flag.String("bench-out", "", "write the soak matrix as a BENCH_soak.json artifact to this file")
	probeMode := flag.Bool("probe", false, "run the adversarial worst-case probe over the preemption × pinning matrix")
	probeBudget := flag.Int("probe-budget", 160, "per-configuration probe evaluation budget")
	tightnessOut := flag.String("tightness-out", "BENCH_tightness.json", "write the probe matrix as a BENCH_tightness.json artifact to this file (with -probe; empty disables)")
	fleetCoord := flag.String("fleet-coordinator", "", "run a fleet coordinator listening for workers on this address (op budget from -soak)")
	fleetWorkerAddr := flag.String("fleet-worker", "", "run one fleet worker dialing a coordinator at this address")
	fleetWorkers := flag.Int("fleet-workers", 3, "worker processes the coordinator spawns locally (at least 1; more may attach with -fleet-worker)")
	fleetChaosKill := flag.Int("fleet-chaos-kill", 0, "kill and respawn this many workers mid-campaign (restart-path smoke)")
	fleetVerify := flag.Bool("fleet-verify", false, "after the campaign, verify the merged snapshot byte-matches a single-process soak")
	fleetState := flag.String("fleet-state", "", "persist coordinator checkpoints to this file (resume on restart)")
	fleetBench := flag.Bool("fleet-bench", false, "run the fleet benchmark across all architecture backends")
	fleetOut := flag.String("fleet-out", "BENCH_fleet.json", "write the fleet benchmark as a BENCH_fleet.json artifact to this file (with -fleet-bench; empty disables)")
	fleetChaos := flag.Uint64("fleet-chaos", 0, "inject deterministic transport faults into every worker connection, seeded by this value (with -fleet-coordinator or -fleet-bench; 0 disables)")
	sweepMode := flag.Bool("sweep", false, "sweep the konfig lattice on every backend and emit WCET-vs-throughput Pareto frontiers")
	sweepWorkers := flag.Int("sweep-workers", 4, "parallel analyses/soaks during -sweep (result is worker-count independent)")
	sweepOps := flag.Uint64("sweep-ops", 256, "soak operations per swept lattice point")
	sweepOut := flag.String("sweep-out", "BENCH_pareto.json", "write the sweep as a BENCH_pareto.json artifact to this file (with -sweep; empty disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	backend, err := arch.Lookup(*archName)
	if err != nil {
		log.Fatal(err)
	}

	if *sweepMode {
		runSweep(ctx, *seed, *sweepOps, *sweepWorkers, *sweepOut)
		return
	}

	if *probeMode {
		runProbe(ctx, *seed, *probeBudget, *tightnessOut, backend.ID)
		return
	}

	if *fleetWorkerAddr != "" {
		runFleetWorker(ctx, *fleetWorkerAddr)
		return
	}

	if *fleetBench {
		ops, wall, err := parseSoakSpec(*soakSpec)
		if err != nil || wall > 0 {
			log.Fatalf("-fleet-bench needs an op budget via -soak (got %q)", *soakSpec)
		}
		runFleetBench(ctx, *seed, ops, *fleetWorkers, *fleetChaosKill, *fleetChaos, *fleetOut)
		return
	}

	if *fleetCoord != "" {
		runFleetCoordinator(ctx, fleetRunConfig{
			addr:       *fleetCoord,
			variant:    *variantName,
			arch:       backend.ID,
			seed:       *seed,
			soakSpec:   *soakSpec,
			pinned:     *pinned,
			workers:    *fleetWorkers,
			serveAddr:  *serveAddr,
			statePath:  *fleetState,
			chaosKills: *fleetChaosKill,
			chaosSeed:  *fleetChaos,
			verify:     *fleetVerify,
		})
		return
	}

	if *soakSpec != "" || *benchOut != "" {
		runSoak(ctx, *soakSpec, *variantName, *seed, *pinned, *soakWorkers, *serveAddr, *benchOut, backend.ID)
		return
	}

	variant := verikern.Modern
	if *variantName == "original" {
		variant = verikern.Original
	}
	sys, err := verikern.BootVariant(variant)
	if err != nil {
		log.Fatal(err)
	}
	// The tracer's histograms are the demo's one record of the
	// interrupt-response samples; the event ring matters only to -trace.
	ringCap := 1
	if *tracePath != "" {
		ringCap = 1 << 16
	}
	tracer := obs.NewTracer(ringCap)
	sys.SetTracer(tracer)

	adversary, err := sys.CreateThread("adversary", 100)
	if err != nil {
		log.Fatal(err)
	}
	sys.StartThread(adversary)

	phase := func(name string, fn func() error) {
		if err := ctx.Err(); err != nil {
			log.Fatalf("interrupted before %s: %v", name, err)
		}
		before := tracer.Latencies()
		sys.ResetMaxLatency()
		sys.SetTimer(sys.Now() + *period)
		if err := fn(); err != nil && *verbose {
			log.Printf("%s: %v", name, err)
		}
		// A scheduling pass between phases, standing in for the
		// real-time task's release point.
		sys.Yield()
		if *verbose {
			after := tracer.Latencies()
			n, worst := after.Count()-before.Count(), sys.MaxLatency()
			fmt.Printf("  %-28s IRQs=%d worst latency=%d cycles (%.1f µs)\n",
				name, n, worst, backend.CyclesToMicros(worst))
		}
	}

	// Phase 1: endpoint deletion with a long queue.
	eps, err := sys.CreateObjects(adversary, verikern.TypeEndpoint, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *waiters; i++ {
		w, err := sys.CreateThread("w", 50)
		if err != nil {
			log.Fatal(err)
		}
		sys.StartThread(w)
		if err := sys.Send(w, eps[0], 1, nil, false); err != nil {
			log.Fatal(err)
		}
	}
	phase("endpoint deletion", func() error { return sys.DeleteCap(adversary, eps[0]) })

	// Phase 2: badge revocation over a populated queue.
	eps2, err := sys.CreateObjects(adversary, verikern.TypeEndpoint, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	badged, err := sys.MintBadgedCap(adversary, eps2[0], 7)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *waiters; i++ {
		w, _ := sys.CreateThread("b", 50)
		sys.StartThread(w)
		sys.Send(w, badged, 1, nil, false)
	}
	phase("badge revocation", func() error { return sys.RevokeBadge(adversary, eps2[0], 7) })

	// Phase 3: large-object creation (1 MiB frame: a long clear).
	phase("1 MiB frame creation", func() error {
		_, err := sys.CreateObjects(adversary, verikern.TypeFrame, 20, 1)
		return err
	})

	// Phase 4: address-space construction and teardown.
	pds, err := sys.CreateObjects(adversary, verikern.TypePageDirectory, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.AssignVSpace(adversary, pds[0]); err != nil {
		log.Fatal(err)
	}
	pts, _ := sys.CreateObjects(adversary, verikern.TypePageTable, 0, 1)
	sys.MapPageTable(adversary, pts[0], 64<<20)
	frames, _ := sys.CreateObjects(adversary, verikern.TypeFrame, 12, 32)
	for i, f := range frames {
		sys.MapFrame(adversary, f, uint32(64<<20)+uint32(i)<<12)
	}
	phase("address-space teardown", func() error { return sys.DeleteVSpace(adversary, pds[0]) })

	// Report.
	stats := sys.Stats()
	fmt.Printf("\nkernel:        %s\n", variant)
	fmt.Printf("cycles run:    %d (%.2f ms simulated)\n", sys.Now(), backend.CyclesToMicros(sys.Now())/1000)
	fmt.Printf("syscalls:      %d (%d restarts, %d preemption points hit)\n",
		stats.Syscalls, stats.Restarts, stats.Preemptions)
	fmt.Printf("IRQs serviced: %d\n", stats.IRQsServiced)
	lat := tracer.Latencies()
	fmt.Printf("latency:       %s\n", latencyLine(obs.DigestHistogram("", &lat), backend))
	if err := sys.InvariantFailure(); err != nil {
		log.Fatalf("INVARIANT VIOLATION: %v", err)
	}
	fmt.Println("invariants:    all checks passed at every preemption point and kernel exit")

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		// Timestamps are cycles on the backend's clock; scale them so
		// the viewer's time axis reads in real microseconds.
		if err := tracer.WriteChromeTrace(f, float64(backend.ClockHz)/1e6); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace:         %d events (%d dropped) written to %s\n",
			tracer.Emitted()-tracer.Dropped(), tracer.Dropped(), *tracePath)
		fmt.Print(tracer.Summary())
	}
}

// latencyLine renders the demo's latency digest, with the maximum
// also in microseconds on the backend's clock.
func latencyLine(d obs.LatencyDigest, b *arch.Backend) string {
	if d.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d min=%d p50=%d p90=%d p99=%d max=%d cycles (max %.1f µs)",
		d.Count, d.Min, d.P50, d.P90, d.P99, d.Max, b.CyclesToMicros(d.Max))
}

// runSoak is the latency-observatory mode. spec is an op count or a
// wall duration; empty means "default ops" (used when only -bench-out
// is given).
func runSoak(ctx context.Context, spec, variantName string, seed uint64, pinned bool, workers int, serveAddr, benchOut, archID string) {
	ops, wall, err := parseSoakSpec(spec)
	if err != nil {
		log.Fatal(err)
	}

	cfg := campaign(variantName, archID, pinned, seed, ops, workers)

	var rep *soak.Report
	if wall > 0 {
		rep, err = soak.RunFor(ctx, cfg, wall)
	} else {
		rep, err = soak.Run(ctx, cfg)
	}
	if err != nil && err != context.Canceled {
		log.Fatal(err)
	}
	fmt.Print(rep.String())
	for i, c := range rep.Captures {
		fmt.Printf("flight capture %d (%s, worker %d): latency %d cycles during %s, %d trailing events\n",
			i, c.Reason, c.Worker, c.Sample.Latency, c.Sample.Source, len(c.Events))
	}

	if benchOut != "" {
		reps, err := verikern.SoakReportArch(ctx, seed, ops, archID)
		if err != nil {
			log.Fatal(err)
		}
		writeArtifact(benchOut, verikern.NewSoakBench(seed, ops, reps), fmt.Sprintf("%d-config soak matrix", len(reps)))
	}

	if serveAddr != "" {
		serveSnapshot(ctx, serveAddr, rep)
	}
}

// runProbe is the adversarial-probe mode: the directed search over
// the full preemption × pinning matrix, a tightness table on stdout
// and optionally the BENCH_tightness.json artifact.
func runProbe(ctx context.Context, seed uint64, budget int, out, archID string) {
	reps, err := verikern.TightnessReportArch(ctx, seed, budget, archID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(verikern.FormatTightnessReport(reps))
	var violations uint64
	for _, r := range reps {
		violations += r.Violations
	}
	if out != "" {
		doc := &verikern.TightnessBench{Seed: seed, Budget: budget, Configs: reps}
		writeArtifact(out, doc, fmt.Sprintf("%d-config tightness matrix", len(reps)))
	}
	if violations != 0 {
		log.Fatalf("SOUNDNESS VIOLATION: %d observations exceeded their computed bound", violations)
	}
	fmt.Println("soundness: every observed maximum within its computed bound")
}

// runSweep is the configuration-lattice mode: walk every backend's
// feasible DefaultSpace sub-lattice through the shared analysis cache,
// soak each point deterministically, and emit the per-entry-point
// WCET-vs-throughput Pareto frontiers as the byte-stable
// BENCH_pareto.json artifact.
func runSweep(ctx context.Context, seed, ops uint64, workers int, out string) {
	start := time.Now()
	doc, err := verikern.ParetoSweep(ctx, nil, seed, ops, workers)
	if err != nil {
		log.Fatal(err)
	}
	for _, sw := range doc.Archs {
		fmt.Printf("sweep %s: %d feasible points\n", sw.Arch, len(sw.Points))
		for _, fr := range sw.Frontiers {
			fmt.Printf("  %-12s frontier: %d point(s)", fr.Entry, len(fr.Points))
			if n := len(fr.Points); n > 0 {
				fmt.Printf("  wcet %d..%d cycles", fr.Points[0].WCETCycles, fr.Points[n-1].WCETCycles)
			}
			fmt.Println()
		}
		var violations uint64
		for _, p := range sw.Points {
			violations += p.Violations
		}
		if violations != 0 {
			log.Fatalf("SOUNDNESS VIOLATION: %d soak samples exceeded their analysed bound on %s", violations, sw.Arch)
		}
	}
	cs := verikern.AnalysisCacheStats()
	fmt.Printf("sweep done in %.1fs (analysis cache: %d hits / %d misses, %d entries)\n",
		time.Since(start).Seconds(), cs.Hits, cs.Misses, cs.Entries)
	if out != "" {
		writeArtifact(out, doc, fmt.Sprintf("%d-backend Pareto sweep", len(doc.Archs)))
	}
}

// writeArtifact writes a BENCH_*.json document to path and reports it
// as "wrote <what> to <path>", exiting on any error.
func writeArtifact(path string, doc any, what string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := verikern.WriteBench(f, doc); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s to %s\n", what, path)
}

// parseSoakSpec interprets -soak's argument: a bare integer is an op
// budget, a time.Duration string a wall budget, empty the default op
// budget.
func parseSoakSpec(spec string) (ops uint64, wall time.Duration, err error) {
	const defaultOps = 10_000
	if spec == "" {
		return defaultOps, 0, nil
	}
	if n, nerr := strconv.ParseUint(spec, 10, 64); nerr == nil {
		return n, 0, nil
	}
	d, derr := time.ParseDuration(spec)
	if derr != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-soak %q: want an op count or a positive duration", spec)
	}
	return defaultOps, d, nil
}

// serveSnapshot exposes the soak's merged snapshot over HTTP until the
// process is interrupted: /metrics (with build_info), /snapshot.json
// and the pprof endpoints, on the same mux the fleet coordinator uses.
func serveSnapshot(ctx context.Context, addr string, rep *soak.Report) {
	mux := fleet.NewMux(func() *obs.Snapshot { return rep.Snapshot }, nil)
	srv := &http.Server{Addr: addr, Handler: mux}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Printf("serving /metrics, /snapshot.json and /debug/pprof on %s (interrupt to stop)\n", addr)
	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}
}

// fleetRunConfig bundles the coordinator-mode flag values.
type fleetRunConfig struct {
	addr       string
	variant    string
	arch       string
	seed       uint64
	soakSpec   string
	pinned     bool
	workers    int
	serveAddr  string
	statePath  string
	chaosKills int
	chaosSeed  uint64
	verify     bool
}

// campaign resolves the -variant/-pinned flags to their lattice point
// (konfig.LegacyPoint: "original -pinned" is the lazy+pinned point) and
// returns the soak campaign it selects, configuration stamp included.
// Both -soak and -fleet-coordinator run through it.
func campaign(variant, archID string, pinned bool, seed, ops uint64, workers int) soak.Config {
	np, err := konfig.LegacyPoint(archID, variant != "original", pinned)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := np.Campaign(seed, ops, workers)
	if err != nil {
		log.Fatal(err)
	}
	return cfg
}

// runFleetCoordinator is the fleet-observatory mode: shard the soak
// across worker processes, merge their streamed deltas live, serve the
// aggregate, survive worker kills, drain gracefully on SIGTERM, and
// optionally verify equal-seed equivalence at completion.
func runFleetCoordinator(ctx context.Context, rc fleetRunConfig) {
	ops, wall, err := parseSoakSpec(rc.soakSpec)
	if err != nil {
		log.Fatal(err)
	}
	if wall > 0 {
		log.Fatal("-fleet-coordinator needs an op budget via -soak, not a duration")
	}
	if rc.workers < 1 {
		log.Fatal("-fleet-workers must be at least 1")
	}
	spec := fleet.SpecFromConfig(campaign(rc.variant, rc.arch, rc.pinned, rc.seed, ops, rc.workers))
	fcfg := fleet.Config{Spec: spec}
	var eng *chaos.Engine
	if rc.chaosSeed != 0 {
		// Chaos mode: wrap every accepted connection in the seeded
		// fault injector under the fleet's chaos profile. The
		// aggressive schedule lands faults even on short smoke
		// campaigns; recovery keeps the merge byte-identical anyway.
		eng = chaos.New(chaos.Aggressive(rc.chaosSeed))
		fcfg = fleet.ChaosConfig(spec, eng.Wrap)
		fmt.Printf("chaos engine armed: seed %d (deterministic fault schedule)\n", rc.chaosSeed)
	}
	fcfg.StatePath, fcfg.Logf = rc.statePath, log.Printf
	if err := fleet.CheckKills(fcfg, rc.chaosKills); err != nil {
		log.Fatal(err)
	}
	// A chaos kill strikes a worker just after its first batch and
	// SIGKILLs its process. procs is set before Serve starts, so every
	// strike, which runs on a served connection, sees it.
	var procs *fleet.ProcSet
	fcfg = fcfg.WithKills(rc.chaosKills, func(pid int) {
		if !procs.Kill(pid) {
			log.Printf("fleet: chaos kill: pid %d is not a live spawned worker", pid)
		}
	})
	c, err := fleet.New(ctx, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", rc.addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet coordinator on %s: %d shards, %d ops, seed %d\n",
		ln.Addr(), spec.Workers, spec.Ops, spec.Seed)

	if rc.serveAddr != "" {
		srv := &http.Server{Addr: rc.serveAddr, Handler: fleet.NewMux(c.Snapshot, c.Status)}
		go func() {
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				log.Printf("serve: %v", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("serving /metrics, /snapshot.json, /fleet.json and /debug/pprof on %s\n", rc.serveAddr)
	}

	// The spawner deliberately does NOT inherit the signal context: on
	// SIGTERM the workers must survive long enough to honour the
	// coordinator's drain (flushing their final batches); only after
	// the drain completes are the processes torn down. Workers that
	// dial before Serve starts wait in the listener's backlog.
	spawnCtx, stopSpawn := context.WithCancel(context.Background())
	defer stopSpawn()
	bin, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	procs = fleet.SpawnLocalWorkers(spawnCtx, bin, rc.workers,
		[]string{"-fleet-worker", ln.Addr().String()}, log.Printf)
	go func() { _ = c.Serve(ln) }()

	interrupted := false
	select {
	case <-c.Done():
	case <-ctx.Done():
		interrupted = true
		fmt.Println("signal received: draining fleet")
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := c.Drain(drainCtx); err != nil {
			log.Printf("drain: %v", err)
		}
		cancel()
	}
	stopSpawn()
	ln.Close()
	procs.Wait()

	st := c.Status()
	snap := c.Snapshot()
	fmt.Printf("fleet merged %d/%d ops, %d samples, %d batches, %d dropped, %d restarts\n",
		st.MergedOps, st.TotalOps, st.Samples, st.Batches, st.Dropped, st.Restarts)
	if eng != nil {
		fmt.Printf("chaos: %d faults injected, %d corrupt frames detected, %d quarantined, %d retries, %d lease releases, %d recoveries (p99 %.1f ms)\n",
			eng.Injected(), st.FramesCorrupt, st.Quarantined, st.Retries, st.Releases, st.Recoveries, st.RecoveryP99MS)
	}
	fmt.Printf("terminal snapshot: irq count %d max %d, bound %d (%d violations)\n",
		snap.IRQ.Count, snap.IRQ.Max, snap.Bound.Cycles, snap.Bound.Violations)

	if rc.verify {
		if interrupted || !c.Completed() {
			log.Println("fleet-verify skipped: campaign incomplete")
		} else {
			fleetDigest, singleDigest, err := fleet.EquivalenceDigests(context.Background(), c)
			if err != nil {
				log.Fatal(err)
			}
			if !bytes.Equal(fleetDigest, singleDigest) {
				log.Fatalf("EQUIVALENCE VIOLATION: fleet merge diverges from single-process soak\n--- fleet ---\n%s--- single ---\n%s", fleetDigest, singleDigest)
			}
			fmt.Println("equal-seed equivalence: fleet merge byte-identical to single-process soak")
		}
	}
	c.Stop()
}

// runFleetWorker attaches one worker to the coordinator and keeps it
// attached across connection failures: transport errors (including
// chaos-injected resets and corrupt frames) redial with jittered
// exponential backoff, completed shards redial immediately for the
// next lease, and a drain ("no shard available") exits cleanly.
func runFleetWorker(ctx context.Context, addr string) {
	dial := func(ctx context.Context) (io.ReadWriteCloser, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	err := fleet.RunWorkerLoop(ctx, dial, fleet.WorkerOptions{
		Logf:         log.Printf,
		FrameTimeout: 10 * time.Second,
	})
	if err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
}

// runFleetBench runs one fleet campaign per architecture backend,
// with chaosKills worker kills and, for a non-zero chaosSeed, seeded
// transport chaos; verifies equal-seed equivalence for each; and
// writes the BENCH_fleet.json artifact. Any inequivalent campaign is
// fatal — the artifact's Equivalent flags are the CI gate.
func runFleetBench(ctx context.Context, seed, ops uint64, workers, chaosKills int, chaosSeed uint64, out string) {
	doc, err := verikern.FleetReport(ctx, seed, ops, workers, chaosKills, chaosSeed, verikern.Architectures())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(verikern.FormatFleetReport(doc))
	if out != "" {
		writeArtifact(out, doc, fmt.Sprintf("%d-arch fleet benchmark", len(doc.Configs)))
	}
	for _, r := range doc.Configs {
		if !r.Equivalent {
			log.Fatalf("EQUIVALENCE VIOLATION: %s fleet merge diverges from fault-free single-process soak", r.Arch)
		}
	}
	fmt.Println("equal-seed equivalence: every fleet merge byte-identical to its fault-free single-process soak")
}
