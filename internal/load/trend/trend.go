// Package trend gates CI on performance regressions: it compares a fresh
// srload bench file against the committed baseline and reports every
// column whose msgs/committed-txn or p95 commit latency regressed past the
// tolerance. The one-batch-per-site commit path (12.0 → 4.0 msgs/txn at R=3,
// W=4) only stays won if a number that drifts back up fails the build.
package trend

import (
	"fmt"

	"siterecovery/internal/load"
)

// Options tunes the gate.
type Options struct {
	// MsgsTolerance is the allowed fractional increase in
	// msgs/committed-txn, e.g. 0.10 for +10%. The metric is a protocol
	// property — deterministic for a fixed workload — so the default is
	// strict.
	MsgsTolerance float64
	// LatencyTolerance is the allowed fractional increase in p95 commit
	// latency. Wall-clock latency varies with the machine, so CI may
	// pass a larger slack here than for the message ratio.
	LatencyTolerance float64
}

func (o Options) withDefaults() Options {
	if o.MsgsTolerance <= 0 {
		o.MsgsTolerance = 0.10
	}
	if o.LatencyTolerance <= 0 {
		o.LatencyTolerance = 0.10
	}
	return o
}

// Violation is one regression past tolerance.
type Violation struct {
	Name     string // result column, e.g. "tcp"
	Metric   string // "msgs_per_committed_txn" or "p95_commit_latency_us"
	Baseline float64
	Fresh    float64
	Limit    float64 // baseline * (1 + tolerance)
}

func (v Violation) String() string {
	if v.Baseline == 0 && v.Fresh == 0 {
		return fmt.Sprintf("%s: %s: column missing from fresh run", v.Name, v.Metric)
	}
	return fmt.Sprintf("%s: %s regressed %.2f -> %.2f (limit %.2f)",
		v.Name, v.Metric, v.Baseline, v.Fresh, v.Limit)
}

// Check compares fresh against baseline and returns every violation. A
// baseline column missing from the fresh run is itself a violation — a
// silently dropped benchmark is how numbers rot. Fresh columns absent from
// the baseline are ignored (new benchmarks need no history).
func Check(baseline, fresh load.BenchFile, opt Options) []Violation {
	opt = opt.withDefaults()
	var out []Violation
	for _, base := range baseline.Results {
		cur, ok := fresh.Find(base.Name)
		if !ok {
			out = append(out, Violation{Name: base.Name, Metric: "result"})
			continue
		}
		if base.MsgsPerCommit > 0 {
			limit := base.MsgsPerCommit * (1 + opt.MsgsTolerance)
			if cur.MsgsPerCommit > limit {
				out = append(out, Violation{
					Name:     base.Name,
					Metric:   "msgs_per_committed_txn",
					Baseline: base.MsgsPerCommit,
					Fresh:    cur.MsgsPerCommit,
					Limit:    limit,
				})
			}
		}
		if base.Latency.P95US > 0 {
			limit := float64(base.Latency.P95US) * (1 + opt.LatencyTolerance)
			if float64(cur.Latency.P95US) > limit {
				out = append(out, Violation{
					Name:     base.Name,
					Metric:   "p95_commit_latency_us",
					Baseline: float64(base.Latency.P95US),
					Fresh:    float64(cur.Latency.P95US),
					Limit:    limit,
				})
			}
		}
	}
	return out
}
