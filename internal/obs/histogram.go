package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers 1ns..~18s in power-of-two steps, with a final
// overflow bucket for anything slower.
const numBuckets = 35

// Histogram is a fixed-bucket latency histogram. Bucket i counts
// observations with duration d (ns) satisfying 2^(i-1) < d <= 2^i
// (bucket 0 holds d <= 1ns, the last bucket holds everything larger than
// ~17.2s). All state is atomic: any number of recorders and scrapers run
// concurrently without locks, at the cost of snapshots being only
// per-field consistent — fine for monitoring.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total nanoseconds
}

// bucketIndex maps a duration in nanoseconds to its bucket.
func bucketIndex(ns int64) int {
	if ns <= 1 {
		return 0
	}
	// bits.Len64(x-1) = ceil(log2(x)) for x >= 2.
	i := bits.Len64(uint64(ns - 1))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketUpper returns the inclusive upper bound (ns) of bucket i, or
// math.MaxInt64 for the overflow bucket.
func bucketUpper(i int) int64 {
	if i >= numBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// HistogramSnapshot is a point-in-time copy of a histogram, with
// quantile extraction. Buckets[i] is the count for bucket i (bounds per
// Histogram's scheme), not cumulative.
type HistogramSnapshot struct {
	Buckets [numBuckets]int64
	Count   int64
	Sum     int64 // nanoseconds
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) as a duration, linearly
// interpolated within the hit bucket. Returns 0 for an empty histogram.
// The overflow bucket reports its lower bound (there is no upper edge to
// interpolate toward).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(int64(1) << uint(i-1))
		}
		if i == numBuckets-1 {
			return time.Duration(lo)
		}
		hi := float64(bucketUpper(i))
		frac := 0.0
		if c > 0 {
			frac = (rank - prev) / float64(c)
		}
		return time.Duration(lo + (hi-lo)*frac)
	}
	return time.Duration(bucketUpper(numBuckets - 2))
}

// P50 returns the median.
func (s HistogramSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P90 returns the 90th percentile.
func (s HistogramSnapshot) P90() time.Duration { return s.Quantile(0.90) }

// P99 returns the 99th percentile.
func (s HistogramSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// Mean returns the arithmetic mean.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}
