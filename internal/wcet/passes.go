package wcet

import (
	"fmt"
	"sort"
	"time"

	"verikern/internal/cfg"
	"verikern/internal/passes"
)

// Pass names: the artifact each pass deposits in the AnalysisContext.
const (
	// PassCFG builds the per-entry inlined whole-program CFG with
	// loop bounds attached. Artifact: *cfg.Graph (immutable once
	// built; shared across analyses via the cache).
	PassCFG = "cfg"
	// PassClassify runs the abstract cache must-analysis and the
	// persistence refinement. Artifact: *Classification.
	PassClassify = "classify"
	// PassSolve encodes the IPET integer linear program and solves
	// it. Artifact: *Solution.
	PassSolve = "solve"
	// PassReconstruct converts the solved edge flows into a concrete
	// worst-case block trace. Artifact: []*kimage.Block.
	PassReconstruct = "reconstruct"
)

// Pass versions, part of every cache key. Bump a version whenever the
// corresponding computation changes so stale artifacts can never be
// served.
const (
	cfgPassVersion         = 1
	classifyPassVersion    = 1
	solvePassVersion       = 1
	reconstructPassVersion = 2
	resultVersion          = 1
)

// Classification is the cache-classification pass's artifact: the
// worst-case cycle cost of every CFG node, the one-off first-miss cost
// charged on each loop's entry edges, and the classification counts.
type Classification struct {
	NodeCost      []uint64
	LoopEntryCost []uint64
	Stats         ClassStats
}

// EdgeFlow is one CFG edge's execution count in the ILP solution, in a
// form that is plain data (serialisable, image-independent).
type EdgeFlow struct {
	From, To cfg.NodeID
	Count    int64
}

// Solution is the IPET/ILP pass's artifact: the WCET bound, the
// per-node and per-edge execution counts of the worst-case path, and
// the ILP problem's dimensions.
type Solution struct {
	Cycles        uint64
	Counts        []int64
	Edges         []EdgeFlow
	LPVars        int
	LPConstraints int
	// LPText is the CPLEX-LP-style dump, filled only under KeepLP.
	LPText string
	// SolveTime is the wall time the original (uncached) ILP solve
	// took; a cache hit reports the cost it avoided.
	SolveTime time.Duration
}

// edgeCountMap rebuilds the map form the path reconstruction consumes.
func (s *Solution) edgeCountMap() map[edgeKey]int64 {
	m := make(map[edgeKey]int64, len(s.Edges))
	for _, e := range s.Edges {
		m[edgeKey{from: e.From, to: e.To}] = e.Count
	}
	return m
}

// imageFingerprint digests the analysis inputs shared by every pass:
// the linked image's content plus the entry point under analysis.
func (a *Analyzer) imageFingerprint(entry string) string {
	return a.Img.Fingerprint() + "|" + entry
}

// hwFingerprint digests the hardware configuration via its canonical
// key (arch.Config.CanonicalKey), the same encoding the konfig lattice
// hashes, so equivalent Configs — e.g. the empty Arch and the explicit
// default backend id — share cache entries. The resolved backend's
// id@version leads the digest: the canonical key alone is not enough,
// because a backend's timing model can be revised without the Config
// changing.
func (a *Analyzer) hwFingerprint() string {
	return a.HW.Backend().Key() + "|" + a.HW.CanonicalKey()
}

// constraintsFingerprint digests the user constraint set, in order
// (constraint order does not change the optimum but keeping it in the
// key is conservative and cheap).
func (a *Analyzer) constraintsFingerprint() string {
	return fmt.Sprintf("%+v", a.Constraints)
}

// solveFingerprint covers everything the solve and reconstruct passes
// depend on: image content, entry, hardware config, constraint set and
// whether the LP text is retained.
func (a *Analyzer) solveFingerprint(entry string) string {
	return a.imageFingerprint(entry) + "|" + a.hwFingerprint() + "|" +
		a.constraintsFingerprint() + "|" + fmt.Sprintf("keepLP=%v", a.KeepLP)
}

// pipeline assembles the analysis pass graph for one entry point:
//
//	cfg ──> classify ──> solve ──> reconstruct
//
// Each pass fingerprint names exactly the inputs that pass reads, so
// the cache shares artifacts across configurations at the finest sound
// granularity: the CFG is reused across every hardware config and
// constraint set, the classification across constraint sets, and the
// solution/trace only between identical analyses.
func (a *Analyzer) pipeline(entry string) (*passes.Pipeline, error) {
	cfgPass := &passes.Pass{
		Name:    PassCFG,
		Version: cfgPassVersion,
		Stage:   "wcet.cfg",
		Fingerprint: func(*passes.AnalysisContext) string {
			return a.imageFingerprint(entry)
		},
		Run: func(ac *passes.AnalysisContext) (any, error) {
			g, err := cfg.Inline(a.Img, entry)
			if err != nil {
				return nil, err
			}
			if err := g.FindLoops(a.Img); err != nil {
				return nil, err
			}
			ac.Metrics.Add("cfg.nodes", uint64(len(g.Nodes)))
			ac.Metrics.Add("cfg.loops", uint64(len(g.Loops)))
			return g, nil
		},
	}
	classifyPass := &passes.Pass{
		Name:    PassClassify,
		Version: classifyPassVersion,
		Deps:    []string{PassCFG},
		Stage:   "wcet.classify",
		Fingerprint: func(*passes.AnalysisContext) string {
			return a.imageFingerprint(entry) + "|" + a.hwFingerprint()
		},
		Run: func(ac *passes.AnalysisContext) (any, error) {
			g, ok := passes.Artifact[*cfg.Graph](ac, PassCFG)
			if !ok {
				return nil, fmt.Errorf("wcet: %s: missing CFG artifact", entry)
			}
			costs, loopEntry, stats := a.classify(g)
			return &Classification{NodeCost: costs, LoopEntryCost: loopEntry, Stats: stats}, nil
		},
	}
	solvePass := &passes.Pass{
		Name:    PassSolve,
		Version: solvePassVersion,
		Deps:    []string{PassCFG, PassClassify},
		Stage:   "wcet.ipet",
		Fingerprint: func(*passes.AnalysisContext) string {
			return a.solveFingerprint(entry)
		},
		Run: func(ac *passes.AnalysisContext) (any, error) {
			g, _ := passes.Artifact[*cfg.Graph](ac, PassCFG)
			cls, _ := passes.Artifact[*Classification](ac, PassClassify)
			if g == nil || cls == nil {
				return nil, fmt.Errorf("wcet: %s: missing solve inputs", entry)
			}
			return a.solveIPET(g, cls, entry)
		},
	}
	reconstructPass := &passes.Pass{
		Name:    PassReconstruct,
		Version: reconstructPassVersion,
		Deps:    []string{PassCFG, PassSolve},
		Stage:   "wcet.reconstruct",
		Fingerprint: func(*passes.AnalysisContext) string {
			// The trace is a function of the graph and the solved
			// flows, both covered by the solve fingerprint.
			return a.solveFingerprint(entry)
		},
		Run: func(ac *passes.AnalysisContext) (any, error) {
			g, _ := passes.Artifact[*cfg.Graph](ac, PassCFG)
			sol, _ := passes.Artifact[*Solution](ac, PassSolve)
			if g == nil || sol == nil {
				return nil, fmt.Errorf("wcet: %s: missing reconstruct inputs", entry)
			}
			trace, err := reconstruct(g, sol.edgeCountMap())
			if err != nil {
				return nil, fmt.Errorf("wcet: %s: %w", entry, err)
			}
			return trace, nil
		},
	}
	return passes.NewPipeline(cfgPass, classifyPass, solvePass, reconstructPass)
}

// sortedEdgeFlows converts the solved edge-count map into a
// deterministic slice, so the Solution artifact is byte-stable across
// runs.
func sortedEdgeFlows(m map[edgeKey]int64) []EdgeFlow {
	out := make([]EdgeFlow, 0, len(m))
	for k, c := range m {
		out = append(out, EdgeFlow{From: k.from, To: k.to, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
