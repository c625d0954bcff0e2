// Package metrics provides the fixed-bucket histogram the simulator keeps
// per message kind for delivery latency: constant memory at any message
// volume, and mergeable bucket by bucket so the sharded engine can combine
// per-shard histograms in any order. Exact
// quantiles over retained samples live in obs.Histogram.
//
// Histogram is not safe for concurrent use.
package metrics

// Histogram counts observations into fixed-width buckets covering
// [lo, hi); samples outside the range land in under/overflow buckets.
type Histogram struct {
	lo, hi   float64
	width    float64
	buckets  []int64
	under    int64
	over     int64
	observed int64
}

// NewHistogram creates a histogram with n equal buckets over [lo, hi).
// Panics if n <= 0 or hi <= lo, which indicates a programming error.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("metrics: invalid histogram bounds")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(n), buckets: make([]int64, n)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.observed++
	switch {
	case v < h.lo:
		h.under++
	case v >= h.hi:
		h.over++
	default:
		idx := int((v - h.lo) / h.width)
		if idx >= len(h.buckets) { // guard float rounding at the top edge
			idx = len(h.buckets) - 1
		}
		h.buckets[idx]++
	}
}

// Count returns the number of observed samples including out-of-range ones.
func (h *Histogram) Count() int64 { return h.observed }

// Bucket returns the count for bucket i and the bucket's [lo, hi) range.
func (h *Histogram) Bucket(i int) (count int64, lo, hi float64) {
	return h.buckets[i], h.lo + float64(i)*h.width, h.lo + float64(i+1)*h.width
}

// NumBuckets returns the number of in-range buckets.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// Merge folds other's counts into h, bucket by bucket, as if h had seen
// all of other's samples. Both histograms must have identical bounds and
// bucket counts; merging is commutative and associative, which is what
// lets simnet's sharded engine combine per-shard latency histograms in any
// order. Panics on a bounds mismatch, which indicates a programming error.
func (h *Histogram) Merge(other *Histogram) {
	if h.lo != other.lo || h.hi != other.hi || len(h.buckets) != len(other.buckets) {
		panic("metrics: Merge on histograms with different bounds")
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	h.under += other.under
	h.over += other.over
	h.observed += other.observed
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// interpolating linearly within the bucket that contains the target rank.
// Underflow resolves to lo and overflow to hi (the histogram does not know
// how far outside the range those samples fell). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.observed == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.observed-1)
	if rank < float64(h.under) {
		return h.lo
	}
	cum := float64(h.under)
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if rank < cum+float64(n) {
			// Position within this bucket, interpolated across its width.
			frac := (rank - cum + 0.5) / float64(n)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum += float64(n)
	}
	return h.hi
}
