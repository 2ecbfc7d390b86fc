package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// The limits the driver places on BENCHMARK.json.
func TestMetricAndWorkloadNamesMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	var setup bool
	for _, d := range endToEndMetrics {
		check("end-to-end", d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v", d.name, d.bound)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if len(perLayerMetrics) < 1 || len(perLayerMetrics) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayerMetrics))
	}
	for _, d := range perLayerMetrics {
		check("per-layer", d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}
}

// BENCHMARK.json at the root is generated (bench/run.sh -manifest); a table
// edited without regenerating it would have the driver check stale names.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the tables in spec.go and workload.go; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}
