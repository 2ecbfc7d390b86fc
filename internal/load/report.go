package load

import (
	"time"

	"siterecovery/internal/metrics"
)

// LatencySummary is one commit-latency distribution, in microseconds, with
// bucket-bound percentiles from internal/metrics.
type LatencySummary struct {
	Count  uint64
	MeanUS float64
	P50US  int64
	P95US  int64
	P99US  int64
	MaxUS  int64
}

// Summarize reads the percentile summary off a histogram.
func Summarize(h *metrics.Histogram) LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  h.Count(),
		MeanUS: float64(h.Mean()) / float64(time.Microsecond),
		P50US:  h.Quantile(0.50).Microseconds(),
		P95US:  h.Quantile(0.95).Microseconds(),
		P99US:  h.Quantile(0.99).Microseconds(),
		MaxUS:  h.Max().Microseconds(),
	}
}

// Report is one run column of srload's table, e.g. "netsim".
type Report struct {
	Name          string
	Arrivals      uint64
	Committed     uint64
	Failed        uint64
	ThroughputTPS float64
	ElapsedMS     float64
	Latency       LatencySummary
	// WireMsgs and MsgsPerCommit are filled for netsim runs, where the
	// simulator counts every protocol message.
	WireMsgs      uint64
	MsgsPerCommit float64
	SpecDigest    string
	FaultWindow   *WindowStats
}

// Report renders the result as a named column. WireMsgs, if nonzero, also
// derives the msgs/committed-txn ratio.
func (r Result) Report(name string, wireMsgs uint64) Report {
	rep := Report{
		Name:          name,
		Arrivals:      r.Arrivals,
		Committed:     r.Committed,
		Failed:        r.Failed,
		ThroughputTPS: r.Throughput(),
		ElapsedMS:     float64(r.Elapsed) / float64(time.Millisecond),
		Latency:       Summarize(r.Latency),
		WireMsgs:      wireMsgs,
		SpecDigest:    r.SpecDigest,
	}
	if wireMsgs > 0 && r.Committed > 0 {
		rep.MsgsPerCommit = float64(wireMsgs) / float64(r.Committed)
	}
	if r.FaultWindow != (WindowStats{}) {
		fw := r.FaultWindow
		rep.FaultWindow = &fw
	}
	return rep
}
