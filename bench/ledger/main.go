// Command ledger is the repository's benchmark: it drives a real 3-process
// srnode cluster through POST /txn from two closed-loop clients and reports
// end-to-end metrics from untraced runs and per-layer metrics from traced
// runs and from direct timing of the layer packages. See ../README.md.
//
// bench/run.sh builds srnode and this program and runs it. With -workload it
// is the driver's entry point: one run, one JSON object on the last line.
// Without, it runs every workload -sets times untraced and once traced and
// prints every metric by name and unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the measured interval.
const runSeconds = 20

// setsDir is where -sets writes its table; gitignored.
const setsDir = "bench/out"

func main() { os.Exit(realMain()) }

func realMain() (code int) {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's JSON line; empty runs them all")
		seed         = flag.Int64("seed", 1, "workload seed: equal seeds give equal transaction streams")
		seconds      = flag.Int("seconds", runSeconds, "measured interval in seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		sets         = flag.Int("sets", 1, "without -workload: how many times to run the untraced workloads")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		bin          = flag.String("srnode", ".bench_build/bin/srnode", "built srnode binary")
		runDir       = flag.String("rundir", ".bench_build/run", "directory for srnode logs and trace exports")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if *seconds < 3 {
		fmt.Fprintln(os.Stderr, "ledger: -seconds must be at least 3")
		return 2
	}

	// Process hygiene: whatever ends this process, no srnode outlives it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	defer func() {
		killAll()
		if r := recover(); r != nil {
			panic(r)
		}
	}()

	if err := os.MkdirAll(*runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	b := &bench{bin: absBin, runDir: *runDir, stateRoot: stateRoot(*runDir)}
	fmt.Printf("statedirs under %s\n", b.stateRoot)

	if *workloadName == "" {
		return b.runAll(*seed, *seconds, *sets)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "ledger: unknown workload %q\n", *workloadName)
		return 2
	}
	var res *result
	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
		res, err = b.runTraced(w, *seed, *seconds)
	} else {
		res, err = b.run(w, *seed, *seconds, false, setupReps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	report(os.Stdout, w.name, *trace == 1, res)
	if !res.correct {
		// The line still goes out, so the driver sees "correct": false.
		code = 1
	}
	fmt.Println(string(driverLine(defs, res)))
	return code
}

// stateRoot is where statedirs go: /dev/shm when it is writable, because a
// real-disk fsync on a shared VM moves throughput by tens of percent between
// identical runs (README.md, "Why tmpfs"); else the run directory.
func stateRoot(runDir string) string {
	const shm = "/dev/shm"
	if f, err := os.CreateTemp(shm, "srledger-probe-"); err == nil {
		f.Close()
		os.Remove(f.Name())
		return shm
	}
	return runDir
}

// runTraced is the per-layer side of one workload: a short untraced
// reference, the traced run, and the direct timings.
func (b *bench) runTraced(w workload, seed int64, seconds int) (*result, error) {
	steady := w
	steady.crash = false
	ref, err := b.run(steady, seed, max(seconds/4, 3), false, 1)
	if err != nil {
		return nil, err
	}
	res, err := b.run(w, seed, max(seconds/2, 3), true, 1)
	if err != nil {
		return nil, err
	}
	m := res.metrics
	m["obs.trace_overhead_pct"] = 100 * (1 - ratio(m["steady_ref_tps"], ref.metrics["steady_ref_tps"]))
	fsync, err := fsyncMedian(b.runDir, 200)
	if err != nil {
		return nil, err
	}
	m["device.fsync_us"] = us(fsync)
	if err := directTimings(m, time.Duration(seconds)*time.Second/(2*runSeconds), b.stateRoot); err != nil {
		return nil, fmt.Errorf("direct timings: %w", err)
	}
	res.attempted += ref.attempted
	res.failed += ref.failed
	res.correct = res.correct && ref.correct
	return res, nil
}

// report prints one run's metrics by name, value and unit. An untraced run
// prints the raw timings under the bounded ones, as the host ran them.
func report(out io.Writer, workload string, traced bool, res *result) {
	fmt.Fprintf(out, "== %s: attempted %d, failed %d, correct %v, %.0f commits measured\n",
		workload, res.attempted, res.failed, res.correct, res.metrics["commit_samples"])
	line := func(d metricDef) {
		fmt.Fprintf(out, "%-14s %-36s %14.4f %s\n", workload, d.name, res.metrics[d.name], d.unit)
	}
	if traced {
		for _, d := range perLayerMetrics {
			line(d)
		}
		return
	}
	for _, d := range endToEndMetrics {
		line(d)
	}
	for _, d := range rawMetrics {
		line(d)
	}
	if _, ok := res.metrics["recovery.recover_s"]; ok {
		line(metricDef{name: "recovery.recover_s", unit: "s"})
	}
}

// driverLine is the JSON object the driver reads from the last line.
func driverLine(defs []metricDef, res *result) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	line, _ := json.Marshal(map[string]any{ // floats, strings and bools cannot fail to encode
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	return line
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package, so
// the names the driver checks are the names the runs print.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ") // strings and floats cannot fail to encode
	return append(out, '\n')
}

// runAll is the one command of the README: every workload sets times
// untraced, then once traced, every metric printed; with sets > 1 the
// min / median / max table, written to setsDir too. It fails on any failed
// operation or data mismatch, and on a spread wider than a metric's bound.
func (b *bench) runAll(seed int64, seconds, sets int) int {
	code := 0
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			res, err := b.run(w, seed+int64(set), seconds, false, setupReps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ledger:", err)
				return 1
			}
			report(os.Stdout, w.name, false, res)
			if !res.correct || res.failed > 0 {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, d := range endToEndMetrics {
				values[w.name][d.name] = append(values[w.name][d.name], res.metrics[d.name])
			}
		}
	}
	for _, w := range workloads {
		res, err := b.runTraced(w, seed, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 1
		}
		report(os.Stdout, w.name, true, res)
		if !res.correct || res.failed > 0 {
			code = 1
		}
		if !w.crash && (res.metrics["lockmgr.timeouts"] != 0 || res.metrics["txn.attempts_per_commit"] != 1) {
			fmt.Printf("%s: lock timeouts or retried transactions on a steady workload\n", w.name)
			code = 1
		}
	}
	if sets < 2 {
		return code
	}

	var table strings.Builder
	fmt.Fprintf(&table, "%d sets of %d s, seeds %d..%d; spread = (max-min)/median, iqr = (q3-q1)/median as the driver takes it\n", sets, seconds, seed, seed+int64(sets)-1)
	fmt.Fprintf(&table, "%-14s %-22s %-4s %11s %11s %11s %7s %6s %6s\n", "workload", "metric", "unit", "min", "median", "max", "spread", "iqr", "bound")
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			v := values[w.name][d.name]
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			rel := ratio(hi-lo, median(v))
			verdict := ""
			if rel > d.bound {
				verdict = "  WIDER THAN BOUND"
				code = 1
			}
			fmt.Fprintf(&table, "%-14s %-22s %-4s %11.4f %11.4f %11.4f %6.1f%% %5.1f%% %5.0f%%%s\n",
				w.name, d.name, d.unit, lo, median(v), hi, 100*rel, 100*spread(v), 100*d.bound, verdict)
		}
	}
	fmt.Print(table.String())
	if err := os.MkdirAll(setsDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	path := filepath.Join(setsDir, fmt.Sprintf("sets-%s.txt", time.Now().UTC().Format("20060102-150405")))
	if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	fmt.Printf("table written to %s\n", path)
	return code
}
