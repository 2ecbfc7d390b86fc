// Command srchaos runs process-level chaos against a real srnode cluster:
// it generates (or loads) a seeded fault schedule, replays it against N
// srnode OS processes whose peer links all route through an in-process TCP
// fault proxy, quiesces, and gates on the full trace-invariant suite plus
// replica convergence. Failing schedules optionally delta-debug down to a
// minimal JSON reproducer.
//
// Usage:
//
//	srchaos -seed 7 -steps 30 -sites 3 -outdir chaos-out
//	srchaos -schedule reproducer.json -bin ./srnode
//	srchaos -seed 7 -dry                # print the schedule, run nothing
//
// The same seed and sizing flags always produce the same schedule JSON, so
// a CI failure is replayable from its logged seed alone. Artifacts land in
// -outdir: schedule.json, per-incarnation exports (siteN.genG.jsonl),
// combined per-site streams (siteN.jsonl), the causally merged timeline
// (merged.jsonl), and — after a shrink — reproducer.json.
//
// Exit status: 0 clean, 1 invariant violations, 2 usage or harness error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"siterecovery/internal/chaos"
	"siterecovery/internal/chaos/proc"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "schedule seed; same seed, same schedule")
		steps    = flag.Int("steps", 30, "schedule length")
		sites    = flag.Int("sites", 3, "cluster size (srnode processes)")
		items    = flag.Int("items", 8, "replicated items")
		identify = flag.String("identify", "markall", "identification strategy: markall|versiondiff|faillock|missinglist")
		store    = flag.String("store", "mem", "srnode storage engine: mem|disk (disk survives SIGKILL via heap pages + WAL redo)")
		schedule = flag.String("schedule", "", "replay this schedule JSON instead of generating one")
		outdir   = flag.String("outdir", "chaos-out", "artifact directory")
		bin      = flag.String("bin", "", "srnode binary (empty: build it into -outdir)")
		shrink   = flag.Bool("shrink", false, "on violation, ddmin the schedule to a minimal reproducer")
		dry      = flag.Bool("dry", false, "print the schedule JSON to stdout and exit without running")
		verbose  = flag.Bool("v", false, "log srnode output and step progress to stderr")
	)
	flag.Parse()

	if err := run(*seed, *steps, *sites, *items, *identify, *store, *schedule, *outdir, *bin, *shrink, *dry, *verbose); err != nil {
		if err == errViolations {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "srchaos:", err)
		os.Exit(2)
	}
}

// errViolations distinguishes "the cluster misbehaved" (exit 1, the
// interesting outcome) from harness errors (exit 2).
var errViolations = fmt.Errorf("invariant violations")

func run(seed int64, steps, sites, items int, identify, store, schedulePath, outdir, bin string, shrink, dry, verbose bool) error {
	var sched chaos.Schedule
	var err error
	if schedulePath != "" {
		if sched, err = chaos.ReadScheduleFile(schedulePath); err != nil {
			return err
		}
	} else {
		sched = chaos.Generate(chaos.GenConfig{
			Seed: seed, Steps: steps, Sites: sites, Items: items, Degree: sites,
			Identify: identify, Mix: proc.Mix,
		})
	}

	if dry {
		return sched.Encode(os.Stdout)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	if err := sched.WriteFile(filepath.Join(outdir, "schedule.json")); err != nil {
		return err
	}
	if bin == "" {
		if bin, err = proc.Build(outdir); err != nil {
			return err
		}
	}

	opts := proc.Options{Config: proc.Config{Bin: bin, Dir: outdir, Args: []string{"-store", store}}}
	if verbose {
		opts.Stderr = os.Stderr
		opts.Log = func(msg string) { fmt.Fprintln(os.Stderr, "srchaos:", msg) }
	}

	res, err := proc.Run(ctx, sched, opts)
	if err != nil {
		return err
	}
	fmt.Printf("seed %d: %d steps run, %d skipped, %d committed, %d aborted, %d crashes, %d recoveries, %d exclusion repairs\n",
		sched.Seed, res.Info.StepsRun, res.Info.StepsSkipped, res.Info.TxnCommitted, res.Info.TxnAborted,
		res.Info.Crashes, res.Info.Recoveries, res.Info.ExclusionRepairs)
	if len(res.Failures) == 0 {
		fmt.Println("PASS: all trace invariants hold and replicas converged")
		return nil
	}
	for _, f := range res.Failures {
		fmt.Printf("FAIL %v\n", f)
	}

	if shrink {
		fmt.Printf("shrinking %d-step schedule against %q...\n", len(sched.Steps), res.Failures[0].Invariant)
		minimal, serr := proc.Shrink(ctx, sched, res.Failures[0], opts,
			func(msg string) { fmt.Fprintln(os.Stderr, "shrink:", msg) })
		if serr != nil {
			fmt.Fprintln(os.Stderr, "srchaos: shrink:", serr)
		} else {
			repro := filepath.Join(outdir, "reproducer.json")
			if werr := minimal.WriteFile(repro); werr != nil {
				return werr
			}
			fmt.Printf("minimal reproducer: %d steps -> %s\n", len(minimal.Steps), repro)
		}
	}
	return errViolations
}
