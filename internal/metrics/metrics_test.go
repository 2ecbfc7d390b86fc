package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestIntHist(t *testing.T) {
	var h IntHist
	for _, v := range []int64{1, 1, 2, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if got := h.Sum(); got != 9 {
		t.Errorf("Sum = %d, want 9", got)
	}
	if got := h.Max(); got != 5 {
		t.Errorf("Max = %d, want 5", got)
	}
}

func TestIntHistQuantile(t *testing.T) {
	h := &IntHist{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty hist p50 = %d, want 0", got)
	}
	// 100 samples of 1, one of 1000: p50 sits in the {0,1} bucket, p99+
	// reaches the outlier's bucket, capped at the observed max.
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d, want the observed max 1000", got)
	}
	if got := h.Quantile(0.995); got != 1000 {
		t.Errorf("p99.5 = %d, want capped at max 1000", got)
	}
	// 100 of 101 samples are 1, so even p99 stays in the first bucket.
	count, sum, hi, p50, _, p99 := h.Summary()
	if count != 101 || sum != 1100 || hi != 1000 || p50 != 1 || p99 != 1 {
		t.Errorf("Summary = count %d sum %d max %d p50 %d p99 %d", count, sum, hi, p50, p99)
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
	overflow := time.Duration(bucketUpper(numBuckets-1)) + time.Hour
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

// TestBucketLayout: every sample lies in (previous bucket's bound, its own
// bucket's bound], and that bound overstates it by at most one part in
// subBuckets — the log-linear promise a quantile inherits.
func TestBucketLayout(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		i := bucketFor(v)
		upper := bucketUpper(i)
		if v > upper || (i > 0 && v <= bucketUpper(i-1)) {
			t.Fatalf("sample %d in bucket %d (%d, %d]", v, i, bucketUpper(i-1), upper)
		}
		if upper-v > v/subBuckets {
			t.Fatalf("sample %d: bound %d overstates by more than 1/%d", v, upper, subBuckets)
		}
	}
	for v := int64(0); v < 1<<12; v++ {
		check(v)
	}
	for shift := 12; shift < 42; shift++ {
		for _, v := range []int64{1 << shift, 1<<shift + 1, 3<<(shift-1) - 1, 1<<(shift+1) - 1} {
			check(v)
		}
	}
	if got := bucketFor(-5); got != 0 {
		t.Fatalf("negative sample in bucket %d, want 0", got)
	}
	if got := bucketFor(1 << 50); got != numBuckets-1 {
		t.Fatalf("huge sample in bucket %d, want the last", got)
	}
}

// TestQuantileWithinAnEighth is the case the power-of-two layout got wrong:
// latencies spread over [500, 620] µs reported p50 = 1024 µs.
func TestQuantileWithinAnEighth(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = 500*time.Microsecond + time.Duration(rng.Int63n(int64(120*time.Microsecond)))
		h.Observe(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	truth := samples[len(samples)/2-1]
	if got := h.Quantile(0.5); got < truth || float64(got) > 1.125*float64(truth) {
		t.Fatalf("p50 = %v, want within [%v, 1.125x]", got, truth)
	}
}
