package fleet

import (
	"sort"
	"time"
)

// ShardStatus is one shard's health row in /fleet.json.
type ShardStatus struct {
	Shard    int  `json:"shard"`
	Attached bool `json:"attached"`
	// Completed means the shard's checkpoint reached its budget.
	Completed bool `json:"completed"`
	// Checkpoint is the merged op watermark; Budget the shard's total
	// op share; LagOps what remains.
	Checkpoint uint64 `json:"checkpoint"`
	Budget     uint64 `json:"budget"`
	LagOps     uint64 `json:"lag_ops"`
	// SimCycles is the shard's cumulative simulated clock.
	SimCycles uint64 `json:"sim_cycles"`
	// Restarts counts lost leases (worker kills, broken conns).
	Restarts int `json:"restarts"`
	// Releases counts lease-timeout reclaims by the reaper — the
	// subset of restarts where the coordinator, not the transport,
	// decided the worker was gone.
	Releases int `json:"releases"`
	// Samples is the merged IRQ sample count; SamplesPerSec an EWMA
	// of the shard's recent merge rate.
	Samples       uint64  `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// LastBatchAgeMS is the wall time since the last merged batch
	// (-1 before the first).
	LastBatchAgeMS int64 `json:"last_batch_age_ms"`
}

// Status is the /fleet.json document: campaign identity, aggregate
// progress and transport health, plus one row per shard.
type Status struct {
	Label   string `json:"label"`
	Arch    string `json:"arch"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// TotalOps / MergedOps measure campaign progress.
	TotalOps  uint64 `json:"total_ops"`
	MergedOps uint64 `json:"merged_ops"`
	Completed bool   `json:"completed"`
	Draining  bool   `json:"draining"`
	// Samples is the merged IRQ sample total; SamplesPerSec the
	// wall-clock average since the coordinator started.
	Samples       uint64  `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// UptimeMS is wall time since the coordinator started.
	UptimeMS int64 `json:"uptime_ms"`
	// Transport health: merged batch count, batches refused at
	// admission (stale, foreign, over budget or malformed), cumulative
	// merge time, and total lost leases.
	Batches  uint64 `json:"batches"`
	Dropped  uint64 `json:"dropped"`
	MergeNS  uint64 `json:"merge_ns"`
	Restarts uint64 `json:"restarts"`
	// Fault-recovery health: worker reconnect attempts (reported at
	// hello), lease-timeout reclaims, frames that failed CRC/length/
	// type validation (detected, counted, never merged), and
	// connections severed after repeated corrupt frames.
	Retries       uint64 `json:"retries"`
	Releases      uint64 `json:"releases"`
	FramesCorrupt uint64 `json:"frames_corrupt"`
	Quarantined   uint64 `json:"quarantined"`
	// Recoveries counts dirty-release → re-lease cycles; RecoveryP99MS
	// is the 99th percentile of how long reclaimed shards sat
	// ownerless (0 until the first recovery), computed over a bounded
	// window of the most recent recoveries.
	Recoveries    int     `json:"recoveries"`
	RecoveryP99MS float64 `json:"recovery_p99_ms"`
	// Degraded marks the served snapshot as stale-but-consistent: the
	// campaign is incomplete and at least one unfinished shard has no
	// live lease, so the aggregate is the last consistent merge rather
	// than a live view. SnapshotAgeMS is the wall time since that
	// merge (-1 before the first).
	Degraded      bool  `json:"degraded"`
	SnapshotAgeMS int64 `json:"snapshot_age_ms"`

	Shards []ShardStatus `json:"shards"`
}

// Status assembles the live fleet-health document.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := Status{
		Label:         c.spec.Label,
		Arch:          c.backend,
		Seed:          c.spec.Seed,
		Workers:       c.spec.Workers,
		TotalOps:      c.spec.Ops,
		Draining:      c.draining,
		UptimeMS:      now.Sub(c.started).Milliseconds(),
		Batches:       c.batches,
		Dropped:       c.dropped,
		MergeNS:       c.mergeNS,
		Restarts:      c.restarts,
		Retries:       c.retries,
		Releases:      c.releases,
		FramesCorrupt: c.framesCorrupt,
		Quarantined:   c.quarantined,
		Recoveries:    int(c.recoveries),
		RecoveryP99MS: p99(c.recoveriesMS),
		SnapshotAgeMS: -1,
	}
	if !c.lastMerge.IsZero() {
		st.SnapshotAgeMS = now.Sub(c.lastMerge).Milliseconds()
	}
	st.Completed = true
	for i, sh := range c.shards {
		row := ShardStatus{
			Shard:          i,
			Attached:       sh.owner != 0,
			Completed:      sh.completed,
			Checkpoint:     sh.checkpoint,
			Budget:         sh.budget,
			LagOps:         sh.budget - min(sh.checkpoint, sh.budget),
			SimCycles:      sh.simCycles,
			Restarts:       sh.restarts,
			Releases:       sh.releases,
			Samples:        sh.samples,
			SamplesPerSec:  sh.rate,
			LastBatchAgeMS: -1,
		}
		if !sh.lastBatch.IsZero() {
			row.LastBatchAgeMS = now.Sub(sh.lastBatch).Milliseconds()
		}
		st.MergedOps += sh.checkpoint
		st.Samples += sh.samples
		if !sh.completed {
			st.Completed = false
		}
		st.Shards = append(st.Shards, row)
	}
	if up := now.Sub(c.started).Seconds(); up > 0 {
		st.SamplesPerSec = float64(st.Samples) / up
	}
	if !st.Completed && !st.Draining {
		for _, row := range st.Shards {
			if !row.Completed && !row.Attached {
				st.Degraded = true
				break
			}
		}
	}
	return st
}

// p99 returns the 99th-percentile of vals (nearest-rank), 0 if empty.
func p99(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := (len(sorted)*99 + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
