package measure_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/kimage"
	"verikern/internal/konfig"
	"verikern/internal/machine"
	"verikern/internal/wcet"
)

// replayConfigs are the lattice points the replay-equivalence table
// covers: both backends, L2 on and off, the dynamic predictor, pinned
// L1 ways, the TCM, the L2-locked kernel and the original kernel, whose
// syscall path is the longest trace (33,623 blocks) and the heaviest
// user of strided data references.
var replayConfigs = []struct {
	arch, assign string
}{
	{"arm1136", ""},
	{"arm1136", "cache.l2.enabled=true"},
	{"arm1136", "predictor.dynamic=true"},
	{"arm1136", "cache.l2.enabled=true,predictor.dynamic=true"},
	{"arm1136", "cache.l1.pinned-ways=1"},
	{"arm1136", "mem.tcm=true"},
	{"arm1136", "cache.l2.enabled=true,cache.l2.lock-kernel=true"},
	{"arm1136", "sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false,predictor.dynamic=true"},
	{"cva6rt", ""},
	{"cva6rt", "cache.l1.pinned-ways=1"},
	{"cva6rt", "sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false"},
}

// replayPolluteSeed and replaySpec are the pinned machine states: one
// blind pollution, and a prime exercising every PrimeSpec dimension.
const replayPolluteSeed = 7

var replaySpec = machine.PrimeSpec{Seed: 11, Footprint: true, Mistrain: true, ReplacementAdvance: 3}

// replayPin is one (configuration, entry) row of the table: the full
// PMU counters of a fresh machine after Pollute+Run and after
// Prime+Run, the analyser's TraceCycles, and each footprint list's
// length and FNV-1a hash.
type replayPin struct {
	Pollute, Prime machine.Counters
	TraceCycles    uint64
	Code, Data     [2]uint64
}

// footprintDigest returns a footprint list's length and the FNV-1a
// hash of its addresses as little-endian words.
func footprintDigest(addrs []uint32) [2]uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, a := range addrs {
		b[0], b[1], b[2], b[3] = byte(a), byte(a>>8), byte(a>>16), byte(a>>24)
		h.Write(b[:])
	}
	return [2]uint64{uint64(len(addrs)), h.Sum64()}
}

// replayPoint builds one table configuration's image, constraints and
// hardware.
func replayPoint(t *testing.T, archID, assign string) (*kimage.Image, []wcet.UserConstraint, arch.Config) {
	t.Helper()
	p, err := konfig.DefaultPoint(archID)
	if err != nil {
		t.Fatal(err)
	}
	if assign != "" {
		for _, kv := range strings.Split(assign, ",") {
			k, v, _ := strings.Cut(kv, "=")
			if p, err = p.Set(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	img, cons, hw, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img, cons, hw
}

func formatCounters(c machine.Counters) string {
	return fmt.Sprintf("machine.Counters{Instructions: %d, Cycles: %d, L1IHits: %d, L1IMisses: %d, L1DHits: %d, L1DMisses: %d, L2Hits: %d, L2Misses: %d, Writebacks: %d, Branches: %d}",
		c.Instructions, c.Cycles, c.L1IHits, c.L1IMisses, c.L1DHits, c.L1DMisses, c.L2Hits, c.L2Misses, c.Writebacks, c.Branches)
}

// TestReplayEquivalencePinned replays every entry point of every
// table configuration through each replay consumer — polluted and
// primed machine runs, TraceCycles, TraceFootprint — and compares the
// results with constants recorded from the uncompiled per-block
// engine, so a change to how traces are replayed cannot move a cycle,
// a counter or a footprint address.
func TestReplayEquivalencePinned(t *testing.T) {
	var got []string
	for _, rc := range replayConfigs {
		img, cons, hw := replayPoint(t, rc.arch, rc.assign)
		a := wcet.New(img, hw)
		a.AddConstraints(cons...)
		for _, entry := range []string{kbin.EntrySyscall, kbin.EntryInterrupt, kbin.EntryPageFault, kbin.EntryUndefined} {
			res, err := a.Analyze(entry)
			if err != nil {
				t.Fatal(err)
			}
			var pin replayPin
			m := machine.New(hw)
			m.LoadImage(img)
			m.Pollute(replayPolluteSeed)
			if c := m.Run(res.Trace); c != m.Counters().Cycles {
				t.Errorf("%s %s: Run returned %d cycles, counters say %d", rc.assign, entry, c, m.Counters().Cycles)
			}
			pin.Pollute = m.Counters()
			m = machine.New(hw)
			m.LoadImage(img)
			m.Prime(res.Trace, replaySpec)
			if c := m.Run(res.Trace); c != m.Counters().Cycles {
				t.Errorf("%s %s: primed Run returned %d cycles, counters say %d", rc.assign, entry, c, m.Counters().Cycles)
			}
			pin.Prime = m.Counters()
			pin.TraceCycles = wcet.TraceCycles(img, hw, res.Trace)
			code, data := kimage.TraceFootprint(res.Trace)
			pin.Code, pin.Data = footprintDigest(code), footprintDigest(data)
			key := rc.arch + "|" + rc.assign + "|" + entry
			got = append(got, fmt.Sprintf("\t%q: {\n\t\tPollute: %s,\n\t\tPrime: %s,\n\t\tTraceCycles: %d, Code: [2]uint64{%d, %#x}, Data: [2]uint64{%d, %#x},\n\t},",
				key, formatCounters(pin.Pollute), formatCounters(pin.Prime), pin.TraceCycles, pin.Code[0], pin.Code[1], pin.Data[0], pin.Data[1]))
			want, ok := replayPins[key]
			if !ok {
				t.Errorf("%s: no pinned row", key)
				continue
			}
			if pin != want {
				t.Errorf("%s:\n got %+v\nwant %+v", key, pin, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("current table:\n%s", strings.Join(got, "\n"))
	}
}

// TestPrimeReusedMachineMatchesFresh: the probe keeps one loaded
// machine for every candidate of an entry's search, so priming a used
// machine must time a replay exactly as priming a fresh one does, for
// every spec dimension and in any order.
func TestPrimeReusedMachineMatchesFresh(t *testing.T) {
	specs := []machine.PrimeSpec{
		{Seed: 1},
		{Seed: 2, Footprint: true},
		{Seed: 3, Mistrain: true},
		{Seed: 4, ReplacementAdvance: 5},
		{Seed: 5, Footprint: true, Mistrain: true, ReplacementAdvance: 15},
		{Seed: 2, Footprint: true},
	}
	for _, rc := range replayConfigs {
		img, cons, hw := replayPoint(t, rc.arch, rc.assign)
		a := wcet.New(img, hw)
		a.AddConstraints(cons...)
		res, err := a.Analyze(kbin.EntryInterrupt)
		if err != nil {
			t.Fatal(err)
		}
		reused := machine.New(hw)
		reused.LoadImage(img)
		for i, spec := range specs {
			fresh := machine.New(hw)
			fresh.LoadImage(img)
			fresh.Prime(res.Trace, spec)
			want := fresh.Run(res.Trace)
			reused.Prime(res.Trace, spec)
			if got := reused.Run(res.Trace); got != want {
				t.Errorf("%s %s spec %d %+v: reused machine %d cycles, fresh %d", rc.arch, rc.assign, i, spec, got, want)
			}
		}
	}
}

// replayPins was recorded from the per-block replay engine that
// predates compiled traces; keys are "arch|assignments|entry".
var replayPins = map[string]replayPin{
	"arm1136||handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 60293, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 0, L2Misses: 0, Writebacks: 90, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 60293, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 0, L2Misses: 0, Writebacks: 90, Branches: 1029},
		TraceCycles: 83183, Code: [2]uint64{215, 0x4334fa23df605228}, Data: [2]uint64{367, 0xd52bd0f924e1b931},
	},
	"arm1136||handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 4953, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 0, Writebacks: 67, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 4953, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 0, Writebacks: 67, Branches: 27},
		TraceCycles: 6764, Code: [2]uint64{248, 0x5ce793df626784c1}, Data: [2]uint64{54, 0xef7a416fe0f85e16},
	},
	"arm1136||handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 12681, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 54, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 12681, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 54, Branches: 155},
		TraceCycles: 17373, Code: [2]uint64{202, 0x493e50983e5e81a8}, Data: [2]uint64{133, 0x3587f68ccbd45e1c},
	},
	"arm1136||handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 12750, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 55, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 12750, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 55, Branches: 155},
		TraceCycles: 17465, Code: [2]uint64{204, 0x59ecf10898642a0c}, Data: [2]uint64{133, 0x2727256359af3a3c},
	},
	"arm1136|cache.l2.enabled=true|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 45191, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 642, L2Misses: 142, Writebacks: 232, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 45191, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 642, L2Misses: 142, Writebacks: 232, Branches: 1029},
		TraceCycles: 135711, Code: [2]uint64{215, 0x4334fa23df605228}, Data: [2]uint64{367, 0xd52bd0f924e1b931},
	},
	"arm1136|cache.l2.enabled=true|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 8102, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 67, Writebacks: 134, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 8102, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 67, Writebacks: 134, Branches: 27},
		TraceCycles: 11454, Code: [2]uint64{248, 0x5ce793df626784c1}, Data: [2]uint64{54, 0xef7a416fe0f85e16},
	},
	"arm1136|cache.l2.enabled=true|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 15491, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 105, Writebacks: 159, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 15491, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 105, Writebacks: 159, Branches: 155},
		TraceCycles: 28696, Code: [2]uint64{202, 0x493e50983e5e81a8}, Data: [2]uint64{133, 0x3587f68ccbd45e1c},
	},
	"arm1136|cache.l2.enabled=true|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 15607, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 106, Writebacks: 161, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 15607, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 106, Writebacks: 161, Branches: 155},
		TraceCycles: 28855, Code: [2]uint64{204, 0x59ecf10898642a0c}, Data: [2]uint64{133, 0x2727256359af3a3c},
	},
	"arm1136|predictor.dynamic=true|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 56309, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 0, L2Misses: 0, Writebacks: 90, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 56399, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 0, L2Misses: 0, Writebacks: 90, Branches: 1029},
		TraceCycles: 85241, Code: [2]uint64{215, 0x4334fa23df605228}, Data: [2]uint64{367, 0xd52bd0f924e1b931},
	},
	"arm1136|predictor.dynamic=true|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 4905, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 0, Writebacks: 67, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 4923, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 0, Writebacks: 67, Branches: 27},
		TraceCycles: 6818, Code: [2]uint64{248, 0x5ce793df626784c1}, Data: [2]uint64{54, 0xef7a416fe0f85e16},
	},
	"arm1136|predictor.dynamic=true|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 12157, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 54, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 12199, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 54, Branches: 155},
		TraceCycles: 17683, Code: [2]uint64{202, 0x493e50983e5e81a8}, Data: [2]uint64{133, 0x3587f68ccbd45e1c},
	},
	"arm1136|predictor.dynamic=true|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 12226, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 55, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 12268, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 55, Branches: 155},
		TraceCycles: 17775, Code: [2]uint64{204, 0x59ecf10898642a0c}, Data: [2]uint64{133, 0x2727256359af3a3c},
	},
	"arm1136|cache.l2.enabled=true,predictor.dynamic=true|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 41207, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 642, L2Misses: 142, Writebacks: 232, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 41297, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 642, L2Misses: 142, Writebacks: 232, Branches: 1029},
		TraceCycles: 137769, Code: [2]uint64{215, 0x4334fa23df605228}, Data: [2]uint64{367, 0xd52bd0f924e1b931},
	},
	"arm1136|cache.l2.enabled=true,predictor.dynamic=true|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 8054, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 67, Writebacks: 134, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 8072, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 67, Writebacks: 134, Branches: 27},
		TraceCycles: 11508, Code: [2]uint64{248, 0x5ce793df626784c1}, Data: [2]uint64{54, 0xef7a416fe0f85e16},
	},
	"arm1136|cache.l2.enabled=true,predictor.dynamic=true|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 14967, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 105, Writebacks: 159, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 15009, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 105, Writebacks: 159, Branches: 155},
		TraceCycles: 29006, Code: [2]uint64{202, 0x493e50983e5e81a8}, Data: [2]uint64{133, 0x3587f68ccbd45e1c},
	},
	"arm1136|cache.l2.enabled=true,predictor.dynamic=true|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 15083, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 106, Writebacks: 161, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 15125, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 64, L2Misses: 106, Writebacks: 161, Branches: 155},
		TraceCycles: 29165, Code: [2]uint64{204, 0x59ecf10898642a0c}, Data: [2]uint64{133, 0x2727256359af3a3c},
	},
	"arm1136|cache.l1.pinned-ways=1|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 56862, L1IHits: 7438, L1IMisses: 18, L1DHits: 633, L1DMisses: 715, L2Hits: 0, L2Misses: 0, Writebacks: 37, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 56862, L1IHits: 7438, L1IMisses: 18, L1DHits: 633, L1DMisses: 715, L2Hits: 0, L2Misses: 0, Writebacks: 37, Branches: 1029},
		TraceCycles: 78593, Code: [2]uint64{215, 0x4334fa23df605228}, Data: [2]uint64{367, 0xd52bd0f924e1b931},
	},
	"arm1136|cache.l1.pinned-ways=1|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 2206, L1IHits: 299, L1IMisses: 0, L1DHits: 50, L1DMisses: 26, L2Hits: 0, L2Misses: 0, Writebacks: 26, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 2206, L1IHits: 299, L1IMisses: 0, L1DHits: 50, L1DMisses: 26, L2Hits: 0, L2Misses: 0, Writebacks: 26, Branches: 27},
		TraceCycles: 2804, Code: [2]uint64{248, 0x5ce793df626784c1}, Data: [2]uint64{54, 0xef7a416fe0f85e16},
	},
	"arm1136|cache.l1.pinned-ways=1|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 11052, L1IHits: 1354, L1IMisses: 12, L1DHits: 115, L1DMisses: 133, L2Hits: 0, L2Misses: 0, Writebacks: 27, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 11052, L1IHits: 1354, L1IMisses: 12, L1DHits: 115, L1DMisses: 133, L2Hits: 0, L2Misses: 0, Writebacks: 27, Branches: 155},
		TraceCycles: 15213, Code: [2]uint64{202, 0x493e50983e5e81a8}, Data: [2]uint64{133, 0x3587f68ccbd45e1c},
	},
	"arm1136|cache.l1.pinned-ways=1|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 11188, L1IHits: 1355, L1IMisses: 13, L1DHits: 114, L1DMisses: 134, L2Hits: 0, L2Misses: 0, Writebacks: 29, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 11188, L1IHits: 1355, L1IMisses: 13, L1DHits: 114, L1DMisses: 134, L2Hits: 0, L2Misses: 0, Writebacks: 29, Branches: 155},
		TraceCycles: 15395, Code: [2]uint64{204, 0x59ecf10898642a0c}, Data: [2]uint64{133, 0x2727256359af3a3c},
	},
	"arm1136|mem.tcm=true|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 56533, L1IHits: 0, L1IMisses: 0, L1DHits: 585, L1DMisses: 726, L2Hits: 0, L2Misses: 0, Writebacks: 50, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 56533, L1IHits: 0, L1IMisses: 0, L1DHits: 585, L1DMisses: 726, L2Hits: 0, L2Misses: 0, Writebacks: 50, Branches: 1029},
		TraceCycles: 77963, Code: [2]uint64{215, 0xfa2b5be7a2b0bd45}, Data: [2]uint64{367, 0xd52bd0f924e1b931},
	},
	"arm1136|mem.tcm=true|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 1871, L1IHits: 0, L1IMisses: 0, L1DHits: 35, L1DMisses: 21, L2Hits: 0, L2Misses: 0, Writebacks: 21, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 1871, L1IHits: 0, L1IMisses: 0, L1DHits: 35, L1DMisses: 21, L2Hits: 0, L2Misses: 0, Writebacks: 21, Branches: 27},
		TraceCycles: 2354, Code: [2]uint64{248, 0x8b174f7b18bbd551}, Data: [2]uint64{54, 0xef7a416fe0f85e16},
	},
	"arm1136|mem.tcm=true|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 10403, L1IHits: 0, L1IMisses: 0, L1DHits: 103, L1DMisses: 135, L2Hits: 0, L2Misses: 0, Writebacks: 20, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 10403, L1IHits: 0, L1IMisses: 0, L1DHits: 103, L1DMisses: 135, L2Hits: 0, L2Misses: 0, Writebacks: 20, Branches: 155},
		TraceCycles: 14313, Code: [2]uint64{202, 0xb63a5caf5b86d170}, Data: [2]uint64{133, 0x3587f68ccbd45e1c},
	},
	"arm1136|mem.tcm=true|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 10405, L1IHits: 0, L1IMisses: 0, L1DHits: 103, L1DMisses: 135, L2Hits: 0, L2Misses: 0, Writebacks: 20, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 10405, L1IHits: 0, L1IMisses: 0, L1DHits: 103, L1DMisses: 135, L2Hits: 0, L2Misses: 0, Writebacks: 20, Branches: 155},
		TraceCycles: 14315, Code: [2]uint64{204, 0x5a35a3a61e4359e4}, Data: [2]uint64{133, 0x2727256359af3a3c},
	},
	"arm1136|cache.l2.enabled=true,cache.l2.lock-kernel=true|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 42355, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 676, L2Misses: 108, Writebacks: 194, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 42355, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 676, L2Misses: 108, Writebacks: 194, Branches: 1029},
		TraceCycles: 131699, Code: [2]uint64{215, 0x4334fa23df605228}, Data: [2]uint64{367, 0xd52bd0f924e1b931},
	},
	"arm1136|cache.l2.enabled=true,cache.l2.lock-kernel=true|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 5314, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 34, L2Misses: 33, Writebacks: 100, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 5314, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 34, L2Misses: 33, Writebacks: 100, Branches: 27},
		TraceCycles: 7442, Code: [2]uint64{248, 0x5ce793df626784c1}, Data: [2]uint64{54, 0xef7a416fe0f85e16},
	},
	"arm1136|cache.l2.enabled=true,cache.l2.lock-kernel=true|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 13159, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 92, L2Misses: 77, Writebacks: 128, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 13159, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 92, L2Misses: 77, Writebacks: 128, Branches: 155},
		TraceCycles: 25392, Code: [2]uint64{202, 0x493e50983e5e81a8}, Data: [2]uint64{133, 0x3587f68ccbd45e1c},
	},
	"arm1136|cache.l2.enabled=true,cache.l2.lock-kernel=true|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 13193, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 93, L2Misses: 77, Writebacks: 129, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 13193, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 93, L2Misses: 77, Writebacks: 129, Branches: 155},
		TraceCycles: 25433, Code: [2]uint64{204, 0x59ecf10898642a0c}, Data: [2]uint64{133, 0x2727256359af3a3c},
	},
	"arm1136|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false,predictor.dynamic=true|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 143081, Cycles: 1238180, L1IHits: 143046, L1IMisses: 35, L1DHits: 388, L1DMisses: 16649, L2Hits: 0, L2Misses: 0, Writebacks: 8616, Branches: 33623},
		Prime:       machine.Counters{Instructions: 143081, Cycles: 1238288, L1IHits: 143046, L1IMisses: 35, L1DHits: 388, L1DMisses: 16649, L2Hits: 0, L2Misses: 0, Writebacks: 8616, Branches: 33623},
		TraceCycles: 1880024, Code: [2]uint64{214, 0x541a5d72f26eeb97}, Data: [2]uint64{17014, 0x79da3246fd36c290},
	},
	"arm1136|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false,predictor.dynamic=true|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 3371, Cycles: 21650, L1IHits: 3335, L1IMisses: 36, L1DHits: 360, L1DMisses: 224, L2Hits: 0, L2Misses: 0, Writebacks: 254, Branches: 799},
		Prime:       machine.Counters{Instructions: 3371, Cycles: 21704, L1IHits: 3335, L1IMisses: 36, L1DHits: 360, L1DMisses: 224, L2Hits: 0, L2Misses: 0, Writebacks: 254, Branches: 799},
		TraceCycles: 32574, Code: [2]uint64{262, 0xffb8d756da1deae2}, Data: [2]uint64{562, 0x65d96e243f64fb},
	},
	"arm1136|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false,predictor.dynamic=true|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 9548, Cycles: 44324, L1IHits: 9519, L1IMisses: 29, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 349, Branches: 2977},
		Prime:       machine.Counters{Instructions: 9548, Cycles: 44420, L1IHits: 9519, L1IMisses: 29, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 349, Branches: 2977},
		TraceCycles: 74419, Code: [2]uint64{209, 0x75db41e29c7c20be}, Data: [2]uint64{1662, 0x8669420ff7ded011},
	},
	"arm1136|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false,predictor.dynamic=true|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 9550, Cycles: 44386, L1IHits: 9520, L1IMisses: 30, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 349, Branches: 2977},
		Prime:       machine.Counters{Instructions: 9550, Cycles: 44470, L1IHits: 9520, L1IMisses: 30, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 349, Branches: 2977},
		TraceCycles: 74511, Code: [2]uint64{211, 0xf283f82902cacdb2}, Data: [2]uint64{1662, 0x7091d530edc9d331},
	},
	"cva6rt||handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 43652, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 0, L2Misses: 0, Writebacks: 106, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 43652, L1IHits: 7422, L1IMisses: 34, L1DHits: 598, L1DMisses: 750, L2Hits: 0, L2Misses: 0, Writebacks: 106, Branches: 1029},
		TraceCycles: 58802, Code: [2]uint64{215, 0xdb8d6dfbb3fd7b78}, Data: [2]uint64{367, 0xcd21abd8bb9e4441},
	},
	"cva6rt||handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 3460, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 0, Writebacks: 67, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 3460, L1IHits: 265, L1IMisses: 34, L1DHits: 43, L1DMisses: 33, L2Hits: 0, L2Misses: 0, Writebacks: 67, Branches: 27},
		TraceCycles: 4645, Code: [2]uint64{248, 0xb54552bbf3e97441}, Data: [2]uint64{54, 0x825ae710760a6836},
	},
	"cva6rt||handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 9174, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 70, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 9174, L1IHits: 1338, L1IMisses: 28, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 70, Branches: 155},
		TraceCycles: 12204, Code: [2]uint64{202, 0x48bb16d513067e48}, Data: [2]uint64{133, 0x92078314466894ac},
	},
	"cva6rt||handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 9221, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 71, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 9221, L1IHits: 1339, L1IMisses: 29, L1DHits: 107, L1DMisses: 141, L2Hits: 0, L2Misses: 0, Writebacks: 71, Branches: 155},
		TraceCycles: 12266, Code: [2]uint64{204, 0xf6e6da1da4bf54ac}, Data: [2]uint64{133, 0x8b2d535e497bdb4c},
	},
	"cva6rt|cache.l1.pinned-ways=1|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 7456, Cycles: 41347, L1IHits: 7438, L1IMisses: 18, L1DHits: 633, L1DMisses: 715, L2Hits: 0, L2Misses: 0, Writebacks: 53, Branches: 1029},
		Prime:       machine.Counters{Instructions: 7456, Cycles: 41347, L1IHits: 7438, L1IMisses: 18, L1DHits: 633, L1DMisses: 715, L2Hits: 0, L2Misses: 0, Writebacks: 53, Branches: 1029},
		TraceCycles: 55742, Code: [2]uint64{215, 0xdb8d6dfbb3fd7b78}, Data: [2]uint64{367, 0xcd21abd8bb9e4441},
	},
	"cva6rt|cache.l1.pinned-ways=1|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 299, Cycles: 1615, L1IHits: 299, L1IMisses: 0, L1DHits: 50, L1DMisses: 26, L2Hits: 0, L2Misses: 0, Writebacks: 26, Branches: 27},
		Prime:       machine.Counters{Instructions: 299, Cycles: 1615, L1IHits: 299, L1IMisses: 0, L1DHits: 50, L1DMisses: 26, L2Hits: 0, L2Misses: 0, Writebacks: 26, Branches: 27},
		TraceCycles: 2005, Code: [2]uint64{248, 0xb54552bbf3e97441}, Data: [2]uint64{54, 0x825ae710760a6836},
	},
	"cva6rt|cache.l1.pinned-ways=1|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 1366, Cycles: 8079, L1IHits: 1354, L1IMisses: 12, L1DHits: 115, L1DMisses: 133, L2Hits: 0, L2Misses: 0, Writebacks: 43, Branches: 155},
		Prime:       machine.Counters{Instructions: 1366, Cycles: 8079, L1IHits: 1354, L1IMisses: 12, L1DHits: 115, L1DMisses: 133, L2Hits: 0, L2Misses: 0, Writebacks: 43, Branches: 155},
		TraceCycles: 10764, Code: [2]uint64{202, 0x48bb16d513067e48}, Data: [2]uint64{133, 0x92078314466894ac},
	},
	"cva6rt|cache.l1.pinned-ways=1|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 1368, Cycles: 8171, L1IHits: 1355, L1IMisses: 13, L1DHits: 114, L1DMisses: 134, L2Hits: 0, L2Misses: 0, Writebacks: 45, Branches: 155},
		Prime:       machine.Counters{Instructions: 1368, Cycles: 8171, L1IHits: 1355, L1IMisses: 13, L1DHits: 114, L1DMisses: 134, L2Hits: 0, L2Misses: 0, Writebacks: 45, Branches: 155},
		TraceCycles: 10886, Code: [2]uint64{204, 0xf6e6da1da4bf54ac}, Data: [2]uint64{133, 0x8b2d535e497bdb4c},
	},
	"cva6rt|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false|handleSyscall": {
		Pollute:     machine.Counters{Instructions: 143081, Cycles: 964216, L1IHits: 143046, L1IMisses: 35, L1DHits: 388, L1DMisses: 16649, L2Hits: 0, L2Misses: 0, Writebacks: 8840, Branches: 33623},
		Prime:       machine.Counters{Instructions: 143081, Cycles: 964216, L1IHits: 143046, L1IMisses: 35, L1DHits: 388, L1DMisses: 16649, L2Hits: 0, L2Misses: 0, Writebacks: 8840, Branches: 33623},
		TraceCycles: 1253696, Code: [2]uint64{214, 0x27c805c483e99317}, Data: [2]uint64{17014, 0xbbaff3bc4ac5c890},
	},
	"cva6rt|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false|handleInterrupt": {
		Pollute:     machine.Counters{Instructions: 3371, Cycles: 17884, L1IHits: 3335, L1IMisses: 36, L1DHits: 360, L1DMisses: 224, L2Hits: 0, L2Misses: 0, Writebacks: 254, Branches: 799},
		Prime:       machine.Counters{Instructions: 3371, Cycles: 17884, L1IHits: 3335, L1IMisses: 36, L1DHits: 360, L1DMisses: 224, L2Hits: 0, L2Misses: 0, Writebacks: 254, Branches: 799},
		TraceCycles: 21934, Code: [2]uint64{262, 0x4cec3c11ff887862}, Data: [2]uint64{562, 0x34d7206cf21e05bb},
	},
	"cva6rt|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false|handlePageFault": {
		Pollute:     machine.Counters{Instructions: 9548, Cycles: 41381, L1IHits: 9519, L1IMisses: 29, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 357, Branches: 2977},
		Prime:       machine.Counters{Instructions: 9548, Cycles: 41381, L1IHits: 9519, L1IMisses: 29, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 357, Branches: 2977},
		TraceCycles: 49456, Code: [2]uint64{209, 0x156ae02dd214dfce}, Data: [2]uint64{1662, 0xd23dedbfd2751031},
	},
	"cva6rt|sched.policy=lazy,vspace.design=asid,preempt.delete=false,preempt.clear=false|handleUndefined": {
		Pollute:     machine.Counters{Instructions: 9550, Cycles: 41423, L1IHits: 9520, L1IMisses: 30, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 357, Branches: 2977},
		Prime:       machine.Counters{Instructions: 9550, Cycles: 41423, L1IHits: 9520, L1IMisses: 30, L1DHits: 1319, L1DMisses: 458, L2Hits: 0, L2Misses: 0, Writebacks: 357, Branches: 2977},
		TraceCycles: 49518, Code: [2]uint64{211, 0x94936d063eb28202}, Data: [2]uint64{1662, 0xe2149d6aa35f6a11},
	},
}
