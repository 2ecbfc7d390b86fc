package trend

import (
	"strings"
	"testing"

	"siterecovery/internal/load"
)

func bench(results ...load.Report) load.BenchFile {
	return load.BenchFile{Schema: load.BenchSchema, Results: results}
}

func col(name string, msgs float64, p95 int64) load.Report {
	return load.Report{
		Name:          name,
		MsgsPerCommit: msgs,
		Latency:       load.LatencySummary{P95US: p95},
	}
}

func TestCheckPassesOnIdenticalRuns(t *testing.T) {
	base := bench(col("tcp", 4.0, 900), col("netsim", 4.0, 400))
	if v := Check(base, base, Options{}); len(v) != 0 {
		t.Fatalf("identical runs flagged: %v", v)
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	base := bench(col("netsim", 4.0, 400))
	fresh := bench(col("netsim", 4.3, 430)) // +7.5%, well under 10%
	if v := Check(base, fresh, Options{}); len(v) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", v)
	}
}

// TestCheckFailsOnSyntheticRegression is the acceptance check: feeding the
// gate a synthetically regressed fresh file must fail both metrics.
func TestCheckFailsOnSyntheticRegression(t *testing.T) {
	base := bench(col("tcp", 4.0, 900), col("netsim", 4.0, 400))
	fresh := bench(
		col("tcp", 4.0, 900),    // unchanged: must not be flagged
		col("netsim", 4.8, 520), // +20% msgs, +30% p95
	)
	v := Check(base, fresh, Options{})
	if len(v) != 2 {
		t.Fatalf("want 2 violations (msgs + p95), got %d: %v", len(v), v)
	}
	for _, violation := range v {
		if violation.Name != "netsim" {
			t.Fatalf("flagged wrong column: %v", violation)
		}
	}
	metrics := []string{v[0].Metric, v[1].Metric}
	joined := strings.Join(metrics, ",")
	if !strings.Contains(joined, "msgs_per_committed_txn") || !strings.Contains(joined, "p95_commit_latency_us") {
		t.Fatalf("want both metrics flagged, got %v", metrics)
	}
}

func TestCheckHonorsLatencySlack(t *testing.T) {
	base := bench(col("tcp", 0, 1000))  // no msgs column for TCP runs
	fresh := bench(col("tcp", 0, 1400)) // +40%
	if v := Check(base, fresh, Options{}); len(v) != 1 {
		t.Fatalf("want a p95 violation at default tolerance, got %v", v)
	}
	if v := Check(base, fresh, Options{LatencyTolerance: 0.5}); len(v) != 0 {
		t.Fatalf("50%% slack still flagged: %v", v)
	}
}

func TestCheckFlagsMissingColumn(t *testing.T) {
	base := bench(col("tcp", 4.0, 900), col("netsim", 4.0, 400))
	fresh := bench(col("tcp", 4.0, 900))
	v := Check(base, fresh, Options{})
	if len(v) != 1 || v[0].Name != "netsim" {
		t.Fatalf("dropped column not flagged: %v", v)
	}
	if !strings.Contains(v[0].String(), "missing") {
		t.Fatalf("violation message unclear: %s", v[0])
	}
}

func TestCheckIgnoresNewColumns(t *testing.T) {
	base := bench(col("netsim", 4.0, 400))
	fresh := bench(col("netsim", 4.0, 400), col("tcp", 4.0, 700))
	if v := Check(base, fresh, Options{}); len(v) != 0 {
		t.Fatalf("new fresh-only column flagged: %v", v)
	}
}
