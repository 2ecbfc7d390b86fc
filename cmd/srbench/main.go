// Command srbench runs the reproduction's experiment suite (E1–E10, see
// DESIGN.md §6) and prints each experiment's table.
//
// Usage:
//
//	srbench [-run E3] [-scale quick|full] [-csv] [-json BENCH.json]
//	srbench -list
//
// With -json, srbench additionally writes a machine-readable per-experiment
// summary — wall time, protocol throughput, abort rate, and commit-latency
// percentiles read off the observability hub.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"siterecovery/internal/experiments"
	"siterecovery/internal/metrics"
	"siterecovery/internal/obs"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		scale    = flag.String("scale", "quick", "experiment scale: quick or full")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list     = flag.Bool("list", false, "list experiments and exit")
		showObs  = flag.Bool("metrics", false, "print each experiment's protocol-metrics delta")
		jsonPath = flag.String("json", "", "write a machine-readable per-experiment summary to this file")
	)
	flag.Parse()
	if err := realMain(*run, *scale, *csv, *list, *showObs, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "srbench:", err)
		os.Exit(1)
	}
}

// latencySummary is the JSON form of one commit-latency distribution, in
// microseconds, with bucket-bound percentiles from the metrics registry.
type latencySummary struct {
	Count uint64  `json:"count"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
}

// benchRecord is one experiment's machine-readable summary.
type benchRecord struct {
	ID             string          `json:"id"`
	Title          string          `json:"title"`
	Scale          string          `json:"scale"`
	ElapsedMS      float64         `json:"elapsed_ms"`
	Rows           int             `json:"rows"`
	Committed      uint64          `json:"committed"`
	Aborted        uint64          `json:"aborted"`
	GiveUps        uint64          `json:"giveups"`
	AbortRate      float64         `json:"abort_rate"`
	ThroughputTxnS float64         `json:"throughput_txn_s"`
	CommitLatency  *latencySummary `json:"commit_latency_us,omitempty"`
}

// summarize reads one experiment's protocol activity off its hub.
func summarize(r experiments.Runner, scaleName string, hub *obs.Hub, elapsed time.Duration, rows int) benchRecord {
	rec := benchRecord{
		ID: r.ID, Title: r.Title, Scale: scaleName,
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6, Rows: rows,
	}
	for k, v := range hub.Snapshot() {
		if k.Subsystem != "txn" || v.Kind != metrics.KindCounter {
			continue
		}
		switch {
		case strings.HasPrefix(k.Name, "commit."):
			rec.Committed += v.Count
		case strings.HasPrefix(k.Name, "abort."):
			rec.Aborted += v.Count
		case k.Name == "giveup":
			rec.GiveUps += v.Count
		}
	}
	if n := rec.Committed + rec.Aborted; n > 0 {
		rec.AbortRate = float64(rec.Aborted) / float64(n)
	}
	if elapsed > 0 {
		rec.ThroughputTxnS = float64(rec.Committed) / elapsed.Seconds()
	}
	if h := hub.Registry().MergedIntHist("txn", "commit_latency_us"); h.Count() > 0 {
		rec.CommitLatency = &latencySummary{
			Count: h.Count(),
			P50:   h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Max:  h.Max(),
			Mean: float64(h.Sum()) / float64(h.Count()),
		}
	}
	return rec
}

func realMain(run, scaleName string, csv, list, showObs bool, jsonPath string) error {
	if list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", r.ID, r.Title, r.Claim)
		}
		return nil
	}

	var scale experiments.Scale
	switch scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (quick|full)", scaleName)
	}

	var selected []experiments.Runner
	if run == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(run, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, r)
		}
	}

	// With -metrics or -json, every cluster the experiments build picks up
	// a process-wide hub installed fresh per experiment, so each
	// experiment's counters, latency histograms, and deltas are its own.
	// The trace ring is sized small: only the registry matters here.
	observe := showObs || jsonPath != ""
	if observe {
		defer obs.SetDefault(nil)
	}

	var records []benchRecord
	for _, r := range selected {
		fmt.Printf("### %s: %s\nclaim: %s\n", r.ID, r.Title, r.Claim)
		var hub *obs.Hub
		if observe {
			hub = obs.NewHub(obs.Options{TraceCapacity: 1})
			obs.SetDefault(hub)
		}
		before := hub.Snapshot()
		start := time.Now()
		table, err := r.Run(scale)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Print(table.String())
		}
		fmt.Printf("(%s in %s)\n\n", r.ID, elapsed.Round(time.Millisecond))
		if showObs {
			fmt.Printf("%s protocol-metrics delta:\n", r.ID)
			if err := hub.Snapshot().Diff(before).WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if jsonPath != "" {
			records = append(records, summarize(r, scaleName, hub, elapsed, len(table.Rows)))
		}
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return fmt.Errorf("write %s: %w", jsonPath, err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(records)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", jsonPath, err)
		}
		fmt.Printf("wrote %s (%d experiments)\n", jsonPath, len(records))
	}
	return nil
}
