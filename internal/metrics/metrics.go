// Package metrics provides the histograms the observability hub and the load
// harness measure with: IntHist, a log-linear histogram over integer samples
// with approximate quantiles, and Histogram, its time.Duration view. Both are
// safe for concurrent use and cheap enough to sit on transaction hot paths;
// naming, storing and rendering instruments is the obs hub's job.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

const (
	// subBuckets is the number of linear sub-buckets per power of two: a
	// quantile read off a bucket's upper bound overstates the sample by at
	// most 1/subBuckets (12.5%).
	subBits    = 3
	subBuckets = 1 << subBits
	// numBuckets covers [0, 2^42): 73 minutes of nanoseconds. Larger samples
	// share the last bucket, which reports the observed max.
	numBuckets = 40 * subBuckets
)

// IntHist is a log-linear histogram over integer samples (attempt counts,
// batch sizes, microseconds, nanoseconds): values below subBuckets get a
// bucket each, and every power of two above is split into subBuckets equal
// buckets. It carries no time unit, so its exports are deterministic
// whenever its inputs are. The zero value is ready to use.
type IntHist struct {
	mu      sync.Mutex
	buckets [numBuckets]uint64
	count   uint64
	sum     int64
	max     int64
}

// bucketFor maps a sample to its bucket index.
func bucketFor(v int64) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return min((shift+1)<<subBits+int(v>>shift)&(subBuckets-1), numBuckets-1)
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i>>subBits - 1
	return int64(subBuckets+i&(subBuckets-1)+1)<<shift - 1
}

// Observe records one sample.
func (h *IntHist) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of samples.
func (h *IntHist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile reports an upper bound for the q-quantile (0 < q <= 1) from the
// bucket boundaries, never above Max, or 0 with no samples. Like everything
// else about IntHist it is deterministic whenever the inputs are.
func (h *IntHist) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *IntHist) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= target {
			// The observed max is the tighter answer whenever it lies
			// below the bucket's bound, and the only one for the overflow
			// bucket, which has no meaningful bound.
			if upper := bucketUpper(i); i < numBuckets-1 && upper < h.max {
				return upper
			}
			return h.max
		}
	}
	return h.max
}

// Sum reports the total of all samples.
func (h *IntHist) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max reports the largest sample.
func (h *IntHist) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Summary reads the count, sum and max and the p50, p95 and p99 bounds
// under one lock, so an export never mixes two states.
func (h *IntHist) Summary() (count uint64, sum, hi, p50, p95, p99 int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.max, h.quantileLocked(0.50), h.quantileLocked(0.95), h.quantileLocked(0.99)
}

// Histogram is a latency histogram: an IntHist of nanoseconds behind a
// time.Duration surface. The zero value is ready to use.
type Histogram struct {
	ns IntHist
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) { h.ns.Observe(int64(d)) }

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.ns.Count() }

// Mean reports the mean sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	n := h.ns.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.ns.Sum() / int64(n))
}

// Max reports the largest sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.ns.Max()) }

// Quantile reports an upper bound for the q-quantile (0 < q <= 1) from the
// bucket boundaries, never above Max, or 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.ns.Quantile(q))
}
