package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for range 10 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 1000 {
		t.Fatalf("Value = %d, want 1000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero histogram must report zeros")
	}
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(10 * time.Millisecond)

	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	wantMean := (100*time.Microsecond + 200*time.Microsecond + 10*time.Millisecond) / 3
	if h.Mean() != wantMean {
		t.Fatalf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if h.Max() != 10*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for range 99 {
		h.Observe(50 * time.Microsecond)
	}
	h.Observe(40 * time.Millisecond)

	p50 := h.Quantile(0.5)
	if p50 < 50*time.Microsecond || p50 > 128*time.Microsecond {
		t.Fatalf("p50 = %v, want a tight bucket bound around 50µs", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 40*time.Millisecond {
		t.Fatalf("p999 = %v, want >= the outlier", p999)
	}
	// Out-of-range quantiles are clamped.
	if h.Quantile(-1) == 0 || h.Quantile(2) < h.Quantile(0.5) {
		t.Fatal("quantile clamping broken")
	}
}

// TestHistogramQuantileNeverExceedsMax: a bucket's upper bound can lie above
// every sample in it, and a report must not show p99 above the observed max.
func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	overflow := bucketUpper(numBuckets-1) + time.Hour
	for _, tc := range []struct {
		name    string
		samples []time.Duration
	}{
		{"single sample", []time.Duration{3019 * time.Microsecond}},
		{"all equal", []time.Duration{70 * time.Microsecond, 70 * time.Microsecond, 70 * time.Microsecond}},
		{"overflow bucket", []time.Duration{time.Millisecond, overflow}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, d := range tc.samples {
				h.Observe(d)
			}
			for _, q := range []float64{0.5, 0.95, 0.99, 1} {
				if got := h.Quantile(q); got > h.Max() {
					t.Errorf("Quantile(%v) = %v exceeds Max %v", q, got, h.Max())
				}
			}
			if got := h.Quantile(1); got != h.Max() {
				t.Errorf("Quantile(1) = %v, want Max %v", got, h.Max())
			}
		})
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	var h Histogram
	f := func(us uint16) bool {
		h.Observe(time.Duration(us) * time.Microsecond)
		return h.Quantile(0.5) <= h.Quantile(0.9) && h.Quantile(0.9) <= h.Quantile(1.0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketBoundariesCoverRange(t *testing.T) {
	// Every observable duration must land in a valid bucket, including
	// extremes.
	var h Histogram
	h.Observe(0)
	h.Observe(time.Nanosecond)
	h.Observe(time.Hour)
	if h.Count() != 3 {
		t.Fatal("extreme observations lost")
	}
	if h.Quantile(1.0) < time.Hour {
		// The top bucket is capped; Quantile falls back to max.
		t.Fatalf("top quantile %v lost the max", h.Quantile(1.0))
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 1 {
		t.Fatal("empty ratio must be 1")
	}
	r.Record(true)
	r.Record(true)
	r.Record(false)
	if got := r.Value(); got < 0.66 || got > 0.67 {
		t.Fatalf("Value = %v", got)
	}
	ok, all := r.Counts()
	if ok != 2 || all != 3 {
		t.Fatalf("Counts = (%d, %d)", ok, all)
	}
}
