package obs

import (
	"fmt"
	"math/bits"
)

// numBuckets covers the full uint64 range: bucket 0 holds the value 0,
// bucket i (1 <= i <= 64) holds values v with bits.Len64(v) == i, i.e.
// v in [2^(i-1), 2^i - 1].
const numBuckets = 65

// Histogram is a fixed-size logarithmic (power-of-two bucketed)
// histogram of cycle counts. The zero value is ready to use; Record
// never allocates, which keeps it usable from the tracer's hot path.
//
// Quantiles are conservative: Quantile returns the upper bound of the
// bucket containing the requested rank (capped at the exact observed
// maximum), so a reported p99 never understates the true p99 — the
// right bias for latency bound checking.
type Histogram struct {
	counts [numBuckets]uint64
	total  uint64
	sum    uint64
	max    uint64
	min    uint64
}

// bucketOf returns the bucket index for a value.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpperBound returns the largest value the bucket holds:
// 0 for bucket 0, 2^i - 1 for bucket i.
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < h.min || h.total == 1 {
		h.min = v
	}
}

// Merge folds every sample of other into h, as if each had been
// Recorded on h directly: bucket counts, total, sum, min and max all
// combine exactly. Used for cross-worker aggregation in the soak pool
// and for snapshot deltas. A nil or empty other is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.total == 0 {
		*h = *other
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	if other.min < h.min {
		h.min = other.min
	}
}

// Reset returns the histogram to its empty state.
func (h *Histogram) Reset() { *h = Histogram{} }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest recorded sample (0 if empty).
func (h *Histogram) Max() uint64 { return h.max }

// Min returns the smallest recorded sample (0 if empty).
func (h *Histogram) Min() uint64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Mean returns the average of all samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// BucketCount returns the number of samples in bucket i.
func (h *Histogram) BucketCount(i int) uint64 {
	if i < 0 || i >= numBuckets {
		return 0
	}
	return h.counts[i]
}

// BucketCountEntry is one non-empty bucket of a HistogramState:
// Bucket is the histogram bucket index, Count its sample count.
type BucketCountEntry struct {
	Bucket int    `json:"b"`
	Count  uint64 `json:"c"`
}

// HistogramState is the serialisable form of a Histogram — the fleet
// wire protocol streams these (sparse: only non-empty buckets). The
// round trip State → HistogramFromState is exact.
type HistogramState struct {
	Buckets []BucketCountEntry `json:"buckets,omitempty"`
	Total   uint64             `json:"total"`
	Sum     uint64             `json:"sum"`
	Max     uint64             `json:"max"`
	Min     uint64             `json:"min"`
}

// State captures the histogram's current contents as a serialisable
// HistogramState.
func (h *Histogram) State() HistogramState {
	st := HistogramState{Total: h.total, Sum: h.sum, Max: h.max, Min: h.min}
	n := 0
	for _, c := range h.counts {
		if c > 0 {
			n++
		}
	}
	if n == 0 {
		return st
	}
	st.Buckets = make([]BucketCountEntry, 0, n)
	for i, c := range h.counts {
		if c > 0 {
			st.Buckets = append(st.Buckets, BucketCountEntry{Bucket: i, Count: c})
		}
	}
	return st
}

// HistogramFromState reconstructs a Histogram from its wire state,
// validating that bucket indices are in range and that the bucket
// counts sum to Total — a malformed or truncated frame must not merge
// into an aggregate.
func HistogramFromState(st HistogramState) (Histogram, error) {
	var h Histogram
	var sum uint64
	for _, b := range st.Buckets {
		if b.Bucket < 0 || b.Bucket >= numBuckets {
			return Histogram{}, fmt.Errorf("obs: histogram state: bucket %d out of range", b.Bucket)
		}
		if h.counts[b.Bucket] != 0 {
			return Histogram{}, fmt.Errorf("obs: histogram state: duplicate bucket %d", b.Bucket)
		}
		h.counts[b.Bucket] = b.Count
		sum += b.Count
	}
	if sum != st.Total {
		return Histogram{}, fmt.Errorf("obs: histogram state: bucket counts sum to %d, total says %d", sum, st.Total)
	}
	h.total = st.Total
	h.sum = st.Sum
	h.max = st.Max
	h.min = st.Min
	return h, nil
}

// DeltaSince returns the histogram of samples recorded after prev was
// captured, where prev is an earlier snapshot of the same histogram:
// bucket counts, total and sum subtract exactly. Min and Max carry h's
// *cumulative* values — a window's true extrema are unrecoverable from
// two snapshots — which is exactly right for telescoping delta merges:
// an aggregate that has merged every delta of a worker holds that
// worker's cumulative min/max, so cross-worker merges still produce the
// global extrema. Errors if prev is not an earlier snapshot (some count
// would go negative).
func (h *Histogram) DeltaSince(prev *Histogram) (Histogram, error) {
	var d Histogram
	if prev == nil {
		return *h, nil
	}
	if prev.total > h.total || prev.sum > h.sum {
		return Histogram{}, fmt.Errorf("obs: histogram delta: prev is not an earlier snapshot (total %d > %d or sum %d > %d)",
			prev.total, h.total, prev.sum, h.sum)
	}
	for i := range h.counts {
		if prev.counts[i] > h.counts[i] {
			return Histogram{}, fmt.Errorf("obs: histogram delta: bucket %d shrank (%d > %d)", i, prev.counts[i], h.counts[i])
		}
		d.counts[i] = h.counts[i] - prev.counts[i]
	}
	d.total = h.total - prev.total
	d.sum = h.sum - prev.sum
	d.max = h.max
	d.min = h.min
	return d, nil
}

// Quantile returns a conservative upper bound on the q-quantile
// (0 <= q <= 1): the upper bound of the bucket holding the sample of
// that rank, capped at the observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the smallest rank such that at least q of the
	// samples are at or below it.
	rank := uint64(q*float64(h.total-1)) + 1
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i]
		if seen >= rank {
			ub := BucketUpperBound(i)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}
