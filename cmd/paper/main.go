// Command paper regenerates the evaluation artefacts of "Improving
// Interrupt Response Time in a Verifiable Protected Microkernel"
// (EuroSys 2012): Tables 1 and 2, Figures 8 and 9, the §6 headline
// interrupt-latency bound, the §6.1 fastpath figure and the §6.3
// analysis-time breakdown.
//
// Usage:
//
//	paper [-table 1|2] [-figure 8|9] [-headline]
//	      [-arch arm1136|cva6rt] [-ablations] [-json] [-trace out.json]
//	      [-lattice]
//
// -lattice prints the legacy evaluation matrices (soak, probe, Figure
// 9's hardware axis) as konfig configuration-lattice points: each
// historical name next to the lattice hash that identifies it in soak
// snapshots, fleet batches and BENCH_pareto.json rows.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"verikern"
	"verikern/internal/arch"
	"verikern/internal/ipc"
	"verikern/internal/konfig"
	"verikern/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	archName := flag.String("arch", "arm1136", "hardware backend: one of "+strings.Join(verikern.Architectures(), ", ")+" (non-ARM backends print the cross-architecture bounds table)")
	table := flag.Int("table", 0, "print only this table (1 or 2)")
	figure := flag.Int("figure", 0, "print only this figure (8 or 9)")
	headline := flag.Bool("headline", false, "print only the headline latency")
	asJSON := flag.Bool("json", false, "emit all results as JSON instead of formatted tables")
	ablations := flag.Bool("ablations", false, "print the design-space ablations (L2 locking, TCM, clearing granularity)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of analysis-pipeline stages")
	lattice := flag.Bool("lattice", false, "print the legacy evaluation matrices as konfig lattice points (name, hash, assignments)")
	flag.Parse()

	// Interrupting the run (SIGINT/SIGTERM) cancels the analysis
	// pipeline between stages instead of killing it mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var metrics *obs.Metrics
	if *tracePath != "" {
		metrics = obs.NewMetrics()
		verikern.ObservePipeline(metrics)
		defer writePipelineTrace(metrics, *tracePath)
	}

	backend, err := arch.Lookup(*archName)
	if err != nil {
		log.Fatal(err)
	}
	if *lattice {
		printLattice(backend.ID)
		return
	}
	if backend.ID != arch.ARM1136ID {
		// The paper's tables and figures are ARM1136/KZM artifacts
		// (L2 and branch-predictor sweeps the other backends lack);
		// for any other backend, print the architecture-portable
		// bounds table instead.
		rows, err := verikern.ArchBounds(ctx, backend.ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(verikern.FormatArchBounds(rows))
		return
	}

	if *asJSON {
		emitJSON(ctx)
		return
	}
	if *ablations {
		printAblations(ctx)
		return
	}

	all := *table == 0 && *figure == 0 && !*headline

	if all || *table == 1 {
		rows, err := verikern.Table1(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(verikern.FormatTable1(rows))
	}
	if all || *table == 2 {
		rows, err := verikern.Table2(ctx, verikern.DefaultRuns)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(verikern.FormatTable2(rows))
	}
	if all || *figure == 8 {
		bars, err := verikern.Fig8(ctx, verikern.DefaultRuns)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(verikern.FormatFig8(bars))
	}
	if all || *figure == 9 {
		bars, err := verikern.Fig9(ctx, verikern.DefaultRuns)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(verikern.FormatFig9(bars))
	}
	if all || *headline {
		off, err := verikern.ComputeHeadline(ctx, false)
		if err != nil {
			log.Fatal(err)
		}
		on, err := verikern.ComputeHeadline(ctx, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Headline worst-case interrupt latency (syscall + interrupt bounds):\n")
		fmt.Printf("  L2 disabled: %7d cycles  %7.1f µs   (paper: 189117 cycles, 356 µs)\n",
			off.TotalCycles, off.TotalMicros)
		fmt.Printf("  L2 enabled:  %7d cycles  %7.1f µs   (paper: 481 µs)\n\n",
			on.TotalCycles, on.TotalMicros)
	}
	if all {
		fp, err := verikern.FastpathCycles()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("IPC fastpath syscall round: %d kernel cycles (fastpath body %d; paper: 200-250 plus entry/exit)\n\n", fp, ipc.CostFastpath)

		times, err := verikern.AnalysisTimes(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Analysis computation time per entry point (§6.3):")
		for _, e := range verikern.EntryPoints() {
			fmt.Printf("  %-24s %v\n", e.Label(), times[e])
		}
	}
}

// writePipelineTrace dumps the collected stage timings and counters as
// a Chrome trace plus a plain-text summary on stdout, followed by the
// analysis cache's effectiveness counters.
func writePipelineTrace(m *obs.Metrics, path string) {
	snap := m.Stats()
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := snap.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAnalysis pipeline stats (trace written to %s):\n%s", path, snap)
	cs := verikern.AnalysisCacheStats()
	fmt.Printf("\nAnalysis cache: %d hits, %d misses, %d entries in memory\n",
		cs.Hits, cs.Misses, cs.Entries)
	ms := verikern.ObservationCacheStats()
	fmt.Printf("Observation memo: %d campaigns shared, %d replayed, %d entries in memory\n",
		ms.Hits, ms.Misses, ms.Entries)
}

// printAblations renders the design-space experiments beyond the
// paper's tables: the §8 L2-locking idea, the §5.1 TCM alternative, and
// the §3.5 clearing-granularity sweep.
func printAblations(ctx context.Context) {
	l2, err := verikern.AblationL2Lock(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("L2 kernel locking (§8 future work): computed bounds, L2 enabled")
	fmt.Printf("%-24s %12s %12s %10s\n", "Event handler", "plain", "locked", "reduction")
	for _, r := range l2 {
		fmt.Printf("%-24s %12d %12d %9.0f%%\n", r.Entry.Label(), r.PlainL2Cycles, r.LockedL2Cycles, r.ReductionPercent)
	}

	tcm, err := verikern.AblationTCM(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nInterrupt-path latency-hiding mechanisms (§4, §5.1): computed bounds")
	fmt.Printf("  baseline %d, way-locked %d, TCM %d cycles\n",
		tcm.BaselineCycles, tcm.PinnedCycles, tcm.TCMCycles)

	chunks, err := verikern.AblationClearChunk(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nObject-clearing preemption granularity (§3.5): worst latency under periodic IRQ")
	fmt.Printf("%-12s %16s %16s\n", "chunk", "worst latency", "workload cycles")
	for _, r := range chunks {
		fmt.Printf("%8d B %16d %16d\n", r.ChunkBytes, r.WorstLatency, r.TotalCycles)
	}
}

// emitJSON runs every experiment and writes one machine-readable
// document, for plotting pipelines.
func emitJSON(ctx context.Context) {
	type doc struct {
		Table1   []verikern.Table1Row         `json:"table1"`
		Table2   []verikern.Table2Row         `json:"table2"`
		Fig8     []verikern.Fig8Bar           `json:"fig8"`
		Fig9     []verikern.Fig9Bar           `json:"fig9"`
		Headline map[string]verikern.Headline `json:"headline"`
		L2Lock   []verikern.L2LockAblation    `json:"l2lock"`
	}
	var d doc
	var err error
	if d.Table1, err = verikern.Table1(ctx); err != nil {
		log.Fatal(err)
	}
	if d.Table2, err = verikern.Table2(ctx, verikern.DefaultRuns); err != nil {
		log.Fatal(err)
	}
	if d.Fig8, err = verikern.Fig8(ctx, verikern.DefaultRuns); err != nil {
		log.Fatal(err)
	}
	if d.Fig9, err = verikern.Fig9(ctx, verikern.DefaultRuns); err != nil {
		log.Fatal(err)
	}
	off, err := verikern.ComputeHeadline(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	on, err := verikern.ComputeHeadline(ctx, true)
	if err != nil {
		log.Fatal(err)
	}
	d.Headline = map[string]verikern.Headline{"l2off": off, "l2on": on}
	if d.L2Lock, err = verikern.AblationL2Lock(ctx); err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		log.Fatal(err)
	}
}

// printLattice renders the legacy evaluation matrices as their konfig
// lattice points: every historical configuration name next to the
// lattice hash that now identifies it (in soak snapshots, fleet
// batches and BENCH_pareto.json rows) and its full key assignment.
func printLattice(archID string) {
	section := func(title string, pts []konfig.NamedPoint, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", title)
		for _, np := range pts {
			fmt.Printf("  %-24s %s  %s\n", np.Name, np.Point.Hash(), np.Point.Listing())
		}
		fmt.Println()
	}
	soakPts, err := konfig.LegacySoakMatrix(archID)
	section("soak matrix ("+archID+")", soakPts, err)
	probePts, err := konfig.LegacyProbeMatrix(archID)
	section("probe matrix ("+archID+")", probePts, err)
	if archID == arch.ARM1136ID {
		section("figure 9 hardware matrix (arm1136)", konfig.LegacyHardwareMatrix(), nil)
	}
}
