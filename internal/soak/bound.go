package soak

import (
	"context"
	"fmt"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/wcet"
)

// ResponseBound composes the worst-case interrupt-response bound from
// the analysed entry bounds: the system-call bound (the longest
// non-preemptible stretch an interrupt can land behind) plus the
// interrupt-path bound, as composed by the paper's headline number
// (§6), plus the backend's architectural interrupt-entry cost (zero on
// ARM1136, whose entry sequence the image models; a constant on
// CVA6-RT's direct-vectoring path). The soak sentinel, the probe's
// kernel-layer search and the konfig sweep all judge samples against
// it.
func ResponseBound(syscall, interrupt uint64, hw arch.Config) uint64 {
	return syscall + interrupt + hw.Backend().InterruptEntryCost(hw)
}

// ComputeBound runs the WCET analysis pipeline for the configuration's
// kernel image and returns its ResponseBound, the bound the sentinel
// checks live samples against. The kernel generation is taken from the
// functional config's PreemptionPoints flag — the modernised image
// carries the §3 restructuring, the original image the monolithic
// walks.
func ComputeBound(ctx context.Context, cfg Config) (uint64, error) {
	img, cons, err := kbin.Build(kbin.Options{
		Modernised: cfg.Kernel.PreemptionPoints,
		Pinned:     cfg.Pinned,
		Arch:       cfg.Arch,
	})
	if err != nil {
		return 0, fmt.Errorf("soak: building image: %w", err)
	}
	hw := arch.Config{Arch: cfg.Arch}
	if cfg.Pinned {
		hw.PinnedL1Ways = 1
	}
	a := wcet.New(img, hw)
	a.AddConstraints(cons...)
	sys, err := a.Bound(ctx, kbin.EntrySyscall)
	if err != nil {
		return 0, fmt.Errorf("soak: syscall bound: %w", err)
	}
	irq, err := a.Bound(ctx, kbin.EntryInterrupt)
	if err != nil {
		return 0, fmt.Errorf("soak: interrupt bound: %w", err)
	}
	return ResponseBound(sys, irq, hw), nil
}
