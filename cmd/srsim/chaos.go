package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"siterecovery/internal/chaos"
)

// runChaos drives the seeded chaos engine: generate (or load) a fault
// schedule, execute it deterministically, emit the schedule and the
// observability trace as files, and check the invariant suite. On a
// violation it delta-debugs the schedule down to a minimal reproducer,
// writes that too, and exits nonzero.
func runChaos(sites, items, degree int, seed int64, steps int, identifyName, schedulePath, outDir string) error {
	var (
		sched chaos.Schedule
		err   error
	)
	if schedulePath != "" {
		sched, err = chaos.ReadScheduleFile(schedulePath)
		if err != nil {
			return err
		}
		fmt.Printf("replaying %s: seed=%d sites=%d items=%d degree=%d identify=%s steps=%d\n",
			schedulePath, sched.Seed, sched.Sites, sched.Items, sched.Degree, sched.Identify, len(sched.Steps))
	} else {
		sched = chaos.Generate(chaos.GenConfig{
			Seed: seed, Steps: steps,
			Sites: sites, Items: items, Degree: degree,
			Identify: identifyName,
		})
		fmt.Printf("generated schedule: seed=%d sites=%d items=%d degree=%d identify=%s steps=%d\n",
			sched.Seed, sched.Sites, sched.Items, sched.Degree, sched.Identify, len(sched.Steps))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	res, err := chaos.Run(ctx, sched, chaos.Options{})
	if err != nil {
		return err
	}

	base := filepath.Join(outDir, fmt.Sprintf("chaos-seed%d", sched.Seed))
	if err := sched.WriteFile(base + ".schedule.json"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.jsonl", res.Trace, 0o644); err != nil {
		return err
	}
	fmt.Printf("schedule:   %s\n", base+".schedule.json")
	fmt.Printf("trace:      %s (%d bytes)\n", base+".trace.jsonl", len(res.Trace))
	fmt.Printf("run:        %d steps applied, %d skipped, %d crashes, %d recoveries (%d failed)\n",
		res.Info.StepsRun, res.Info.StepsSkipped, res.Info.Crashes, res.Info.Recoveries, res.Info.FailedRecoveries)
	fmt.Printf("traffic:    %d committed, %d aborted; %d claims (%d failed), %d total failures resolved\n",
		res.Info.TxnCommitted, res.Info.TxnAborted, res.Info.ClaimsDown, res.Info.FailedClaims, res.Info.TotalResolved)

	if !res.Failed() {
		fmt.Println("invariants: all hold")
		return nil
	}
	for _, f := range res.Failures {
		fmt.Println("INVARIANT VIOLATED:", f)
	}
	fmt.Println("shrinking to a minimal reproducer...")
	minimized, serr := chaos.Shrink(ctx, sched, chaos.Options{}, res.Failures[0], func(s string) { fmt.Println("  " + s) })
	if serr != nil {
		fmt.Fprintln(os.Stderr, "srsim: shrink:", serr)
	} else {
		minPath := base + ".min.schedule.json"
		if werr := minimized.WriteFile(minPath); werr != nil {
			return werr
		}
		fmt.Printf("reproducer: %s (%d of %d steps)\n", minPath, len(minimized.Steps), len(sched.Steps))
		for i, s := range minimized.Steps {
			fmt.Printf("  %02d %s\n", i, s)
		}
	}
	return fmt.Errorf("%d invariant(s) violated", len(res.Failures))
}
