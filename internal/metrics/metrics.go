// Package metrics provides the small set of instruments the experiment
// harness needs: atomic counters, latency histograms with approximate
// quantiles, and availability ratios. Everything is safe for concurrent
// use and cheap enough to sit on transaction hot paths.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// numBuckets covers 1µs..~1100s in power-of-two buckets.
const numBuckets = 31

// Histogram is a fixed-bucket latency histogram. The zero value is ready
// to use.
type Histogram struct {
	mu      sync.Mutex
	buckets [numBuckets]uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

// bucketFor maps a duration to its power-of-two bucket index.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := int(math.Log2(float64(us))) + 1
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean reports the mean sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max reports the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile reports an upper bound for the q-quantile (0 < q <= 1) from the
// bucket boundaries, never above Max, or 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
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

// Ratio tracks successes over attempts (availability).
type Ratio struct {
	ok  atomic.Uint64
	all atomic.Uint64
}

// Record adds one attempt with its outcome.
func (r *Ratio) Record(success bool) {
	r.all.Add(1)
	if success {
		r.ok.Add(1)
	}
}

// Value reports successes/attempts, or 1 with no attempts.
func (r *Ratio) Value() float64 {
	all := r.all.Load()
	if all == 0 {
		return 1
	}
	return float64(r.ok.Load()) / float64(all)
}

// Counts reports (successes, attempts).
func (r *Ratio) Counts() (uint64, uint64) { return r.ok.Load(), r.all.Load() }
