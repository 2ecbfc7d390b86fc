package load

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"siterecovery/internal/metrics"
)

// BenchSchema identifies the BENCH_PR6.json layout for the trend checker.
const BenchSchema = "srload/v1"

// LatencySummary is the JSON form of one commit-latency distribution, in
// microseconds, with bucket-bound percentiles from internal/metrics.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  int64   `json:"p50_us"`
	P95US  int64   `json:"p95_us"`
	P99US  int64   `json:"p99_us"`
	MaxUS  int64   `json:"max_us"`
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

// Report is one run column of the bench file, e.g. "netsim".
type Report struct {
	Name          string         `json:"name"`
	Arrivals      uint64         `json:"arrivals"`
	Committed     uint64         `json:"committed"`
	Failed        uint64         `json:"failed"`
	ThroughputTPS float64        `json:"throughput_tps"`
	ElapsedMS     float64        `json:"elapsed_ms"`
	Latency       LatencySummary `json:"commit_latency"`
	// WireMsgs and MsgsPerCommit are filled for netsim runs, where the
	// simulator counts every protocol message.
	WireMsgs      uint64       `json:"wire_msgs,omitempty"`
	MsgsPerCommit float64      `json:"msgs_per_committed_txn,omitempty"`
	SpecDigest    string       `json:"spec_digest,omitempty"`
	FaultWindow   *WindowStats `json:"fault_window,omitempty"`
}

// Report renders the result as a named bench-file column. WireMsgs, if
// nonzero, also derives the msgs/committed-txn ratio the trend checker
// gates on.
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

// BenchFile is the machine-readable BENCH_PR6.json: the shared run
// parameters plus one Report per cluster/mode column.
type BenchFile struct {
	Schema       string   `json:"schema"`
	Sites        int      `json:"sites"`
	Items        int      `json:"items"`
	Replicas     int      `json:"replicas"`
	OpsPerTxn    int      `json:"ops_per_txn"`
	ReadFraction float64  `json:"read_fraction"`
	Dist         string   `json:"dist"`
	TargetQPS    float64  `json:"target_qps"`
	Txns         int      `json:"txns"`
	Concurrency  int      `json:"concurrency"`
	Seed         int64    `json:"seed"`
	Results      []Report `json:"results"`
}

// Find returns the report with the given name, if present.
func (b BenchFile) Find(name string) (Report, bool) {
	for _, r := range b.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Report{}, false
}

// WriteFile writes the bench file as indented JSON, creating parent
// directories as needed.
func (b BenchFile) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchFile parses a bench file and checks its schema.
func ReadBenchFile(path string) (BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchFile{}, err
	}
	var b BenchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return BenchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != BenchSchema {
		return BenchFile{}, fmt.Errorf("%s: schema %q, want %q", path, b.Schema, BenchSchema)
	}
	return b, nil
}
