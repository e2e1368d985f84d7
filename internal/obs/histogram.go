// Package obs is the daemon's telemetry substrate: lock-free log-scale
// latency histograms, per-query stage traces, a sliding-window rate
// estimator, and a bounded worst-queries ring. Everything here is designed
// for the hot path: recording a sample is a couple of atomic adds, tracing
// a stage is one time.Now plus an append, and the whole layer can be
// switched off with the Disabled registry (every record call then returns
// after a single branch), which is the baseline BenchmarkServerSubmit
// compares against.
//
// The types are deliberately dependency-free (no Prometheus client): the
// server renders snapshots into Prometheus text exposition itself, so the
// daemon stays a single static binary.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram: powers of two
// starting at 1µs, so bucket i counts samples with
// 2^(i-1)µs < d <= 2^i µs (bucket 0 holds everything <= 1µs). 36 buckets
// reach ~9.5 hours; anything slower lands in the last bucket.
const NumBuckets = 36

// Histogram is a fixed-bucket log-scale duration histogram. Observe is
// lock-free (two atomic adds and one atomic increment) and safe for any
// number of concurrent writers; Snapshot may run concurrently with writers
// and yields a mergeable point-in-time copy. The zero value is ready to
// use.
type Histogram struct {
	count   atomic.Int64
	sumNano atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketIndex maps a duration to its bucket: ceil(log2(µs)), clamped.
func bucketIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us <= 1 {
		return 0
	}
	// bits.Len64(x-1) is ceil(log2(x)) for x >= 2: the first bucket whose
	// upper bound 2^i µs is >= the sample.
	i := bits.Len64(us - 1)
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketBound returns bucket i's inclusive upper bound (2^i microseconds).
// The final bucket reports math.MaxInt64 (it absorbs every slower sample,
// rendering as +Inf in Prometheus exposition).
func BucketBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return time.Duration(math.MaxInt64)
	}
	return time.Microsecond << uint(i)
}

// Observe records one sample. Negative durations are clamped to zero (a
// clock step mid-span must not corrupt the sum).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNano.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
}

// Snapshot copies the histogram's counters. Observe bumps the count before
// its bucket and Snapshot reads the buckets before the count, so every
// sample a snapshot sees in a bucket it also sees in Count: during traffic
// the invariant is sum of Buckets <= Count rather than equality; a quiesced
// histogram snapshots exactly.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	// Buckets before count/sum: a sample that lands mid-snapshot then
	// inflates count at worst, and Quantile clamps to the bucketed total.
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNanos = h.sumNano.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: plain integers,
// safe to serialize, merge, and query.
type HistogramSnapshot struct {
	// Count and SumNanos aggregate every recorded sample.
	Count    int64 `json:"count"`
	SumNanos int64 `json:"sumNanos"`
	// Buckets[i] counts samples in (BucketBound(i-1), BucketBound(i)].
	Buckets [NumBuckets]int64 `json:"buckets"`
}

// Merge folds o into s (bucket-wise addition) — how per-shard or
// per-process snapshots combine into one distribution.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) as the upper bound of the
// bucket holding that rank — a conservative estimate whose error is bounded
// by the 2x bucket width. An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := int64(0)
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			if i == NumBuckets-1 {
				// The overflow bucket has no meaningful upper bound; report
				// the mean of what is known instead of +Inf.
				return s.Mean()
			}
			return BucketBound(i)
		}
	}
	return s.Mean()
}

// Mean returns the average recorded duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}
