// Package metrics provides the small set of instruments the experiment
// harness needs: atomic counters, gauges and one log-linear histogram with
// approximate quantiles, plus the keyed Registry that exports them.
// Everything is safe for concurrent use and cheap enough to sit on
// transaction hot paths.
package metrics

import (
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
