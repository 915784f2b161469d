// Command wcet runs the static worst-case execution time analysis on
// one kernel entry point and reports the bound, the worst path's
// composition, cache-classification statistics and the ILP problem
// size — the per-run detail behind the paper's Tables 1 and 2.
//
// Usage:
//
//	wcet [-entry handleSyscall] [-all] [-variant modern|original]
//	     [-arch arm1136|cva6rt] [-konfig "key=value,..."]
//	     [-l2] [-bpred] [-pin] [-observe N] [-trace] [-hot N]
//	     [-lp] [-verify] [-obligations] [-dump] [-timings]
//
// Every run analyses one configuration-lattice point. -konfig assigns
// keys on the backend's default point; without it the legacy
// variant/feature flags select the variant's point plus the L2 and
// branch-predictor enables. The point is validated by the konfig rule
// engine (an infeasible combination fails with its named-rule
// diagnostics), and the image and hardware model are derived from it.
// See docs/config-lattice.md for the key reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"verikern"
	"verikern/internal/arch"
	"verikern/internal/konfig"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wcet: ")
	entry := flag.String("entry", string(verikern.Syscall), "entry point to analyse")
	all := flag.Bool("all", false, "analyse every entry point, in the image's deterministic order")
	variantName := flag.String("variant", "modern", "kernel variant: modern or original")
	archName := flag.String("arch", "arm1136", "hardware backend: one of "+strings.Join(verikern.Architectures(), ", "))
	l2 := flag.Bool("l2", false, "enable the L2 cache")
	bpred := flag.Bool("bpred", false, "enable the branch predictor")
	pin := flag.Bool("pin", false, "enable L1 cache pinning")
	observe := flag.Int("observe", 0, "also measure the worst path over N polluted runs")
	trace := flag.Bool("trace", false, "print the worst-case path's block sequence")
	dumpLP := flag.Bool("lp", false, "dump the generated integer linear program")
	hot := flag.Int("hot", 0, "print the N blocks contributing most to the bound")
	verify := flag.Bool("verify", false, "model-check the image's loop-bound annotations (§5.3)")
	obligations := flag.Bool("obligations", false, "print the proof obligations for the image's manual constraints (§5.2)")
	dumpImage := flag.Bool("dump", false, "print a disassembly-style listing of the kernel image")
	timings := flag.Bool("timings", false, "print solver and analysis wall times (makes output non-reproducible)")
	konfigSpec := flag.String("konfig", "", "configuration-lattice assignments \"key=value,...\" applied to the backend's default point (overrides -variant/-l2/-bpred/-pin; see docs/config-lattice.md)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Both flag sets select a lattice point: -konfig assigns keys on the
	// backend's default point, the legacy flags name the variant's
	// point (konfig.LegacyPoint) plus the L2 and predictor enables.
	var p verikern.LatticePoint
	if *konfigSpec != "" {
		p = mustPoint(verikern.DefaultLatticePoint(*archName))
		for _, kv := range strings.Split(*konfigSpec, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				log.Fatalf("-konfig %q: want key=value", kv)
			}
			p = mustPoint(p.Set(strings.TrimSpace(k), strings.TrimSpace(v)))
		}
	} else {
		if *variantName != "modern" && *variantName != "original" {
			log.Fatalf("unknown variant %q", *variantName)
		}
		np, err := konfig.LegacyPoint(*archName, *variantName == "modern", *pin)
		if err != nil {
			log.Fatal(err)
		}
		p = np.Point
		p.L2Enabled, p.BranchPredictor = *l2, *bpred
	}
	im, hw, err := verikern.BuildImagePoint(p)
	if err != nil {
		log.Fatal(err)
	}
	variant := "original"
	if p.PreemptionPoints() {
		variant = "modern"
	}
	if *konfigSpec != "" {
		fmt.Printf("konfig:       %s  %s\n", p.Hash(), p.Listing())
	}
	if *verify {
		checked, unmodelled, err := im.VerifyLoopBounds()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loop bounds: %d of %d annotated loops justified by their model-checked bounds\n",
			checked, checked+len(unmodelled))
		if len(unmodelled) > 0 {
			fmt.Printf("  unmodelled (annotation unchecked): %s\n", strings.Join(unmodelled, ", "))
		}
	}
	if *obligations {
		fmt.Println("proof obligations for manual infeasible-path constraints:")
		for _, c := range im.Constraints {
			fmt.Println("  " + c.Obligation())
		}
	}
	if *dumpImage {
		if err := im.Img.Dump(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *all {
		bounds, err := im.AnalyzeAll(ctx, hw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernel:       %s%s\n", variant, pinSuffix(p.Pinned()))
		fmt.Printf("hardware:     arch=%s L2=%v branch-predictor=%v pinned-ways=%d\n", p.Arch, hw.L2Enabled, hw.BranchPredictor, hw.PinnedL1Ways)
		fmt.Printf("%-24s %12s %10s %8s %8s\n", "entry", "cycles", "µs", "blocks", "ilp-vars")
		for _, b := range bounds {
			fmt.Printf("%-24s %12d %10.1f %8d %8d\n",
				b.Entry, b.Cycles, b.Micros, len(b.Result.Trace), b.Result.LPVars)
		}
		return
	}

	var bd verikern.Bound
	if *dumpLP {
		bd, err = im.AnalyzeWithLP(hw, verikern.EntryPoint(*entry))
	} else {
		bd, err = im.AnalyzeContext(ctx, hw, verikern.EntryPoint(*entry))
	}
	if err != nil {
		log.Fatal(err)
	}
	r := bd.Result

	fmt.Printf("entry:        %s (%s kernel%s)\n", *entry, variant, pinSuffix(p.Pinned()))
	fmt.Printf("hardware:     arch=%s L2=%v branch-predictor=%v pinned-ways=%d\n", p.Arch, hw.L2Enabled, hw.BranchPredictor, hw.PinnedL1Ways)
	fmt.Printf("bound:        %d cycles = %.1f µs\n", bd.Cycles, bd.Micros)
	fmt.Printf("cfg:          %d inlined nodes, %d loops\n", len(r.Graph.Nodes), len(r.Graph.Loops))
	if *timings {
		fmt.Printf("ilp:          %d variables, %d constraints, solved in %v\n",
			r.LPVars, r.LPConstraints, r.SolveTime)
		fmt.Printf("analysis:     %v total\n", r.AnalysisTime)
	} else {
		fmt.Printf("ilp:          %d variables, %d constraints\n", r.LPVars, r.LPConstraints)
	}
	c := r.Classified
	fmt.Printf("cache model:  fetch %d hit / %d miss; data %d hit / %d miss / %d unclassified\n",
		c.FetchHit, c.FetchMiss, c.DataHit, c.DataMiss, c.DataUnknown)
	fmt.Printf("worst path:   %d basic blocks\n", len(r.Trace))

	if *trace {
		fmt.Println("\nworst-case path:")
		for i, blk := range r.Trace {
			fmt.Printf("  %4d  %#x  %-14s (%d instrs)\n", i, blk.Addr, blk.Name, blk.NumInstrs())
			if i > 200 {
				fmt.Printf("  ... %d more blocks\n", len(r.Trace)-i)
				break
			}
		}
	}

	if *hot > 0 {
		fmt.Printf("\nhottest blocks (of %d cycles):\n", bd.Cycles)
		for _, h := range r.Hottest(*hot) {
			fmt.Printf("  %8d cycles (%4.1f%%)  ×%-5d %s\n",
				h.Cycles, 100*float64(h.Cycles)/float64(bd.Cycles), h.Count, h.Key)
		}
	}

	if *dumpLP {
		fmt.Println("\nILP problem:")
		fmt.Print(r.LPText)
	}

	if *observe > 0 {
		obs := im.Observe(hw, bd, *observe)
		fmt.Printf("\nobserved over %d polluted runs:\n", obs.Runs)
		fmt.Printf("  max:  %d cycles = %.1f µs  (ratio %.2f)\n",
			obs.Max, arch.MustLookup(p.Arch).CyclesToMicros(obs.Max), float64(bd.Cycles)/float64(obs.Max))
		fmt.Printf("  mean: %.0f cycles\n", obs.Mean)
		fmt.Printf("  min:  %d cycles\n", obs.Min)
	}
}

// mustPoint unwraps a lattice-point result, exiting on error.
func mustPoint(p verikern.LatticePoint, err error) verikern.LatticePoint {
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func pinSuffix(pin bool) string {
	if pin {
		return ", pinned"
	}
	return ""
}
