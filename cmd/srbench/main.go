// Command srbench runs the reproduction's experiment suite (E1–E10, see
// DESIGN.md §6) and prints each experiment's table.
//
// Usage:
//
//	srbench [-run E3] [-scale quick|full] [-csv] [-metrics]
//	srbench -list
//
// -run E7 -scale full is the certification fuzz: it certifies two dozen randomized
// concurrent crash/recover runs 1-SR and exits non-zero, naming the seed and
// the cycle, on a violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"siterecovery/internal/experiments"
	"siterecovery/internal/obs"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		scale   = flag.String("scale", "quick", "experiment scale: quick or full")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list experiments and exit")
		showObs = flag.Bool("metrics", false, "print each experiment's protocol metrics")
	)
	flag.Parse()
	if err := realMain(*run, *scale, *csv, *list, *showObs); err != nil {
		fmt.Fprintln(os.Stderr, "srbench:", err)
		os.Exit(1)
	}
}

func realMain(run, scaleName string, csv, list, showObs bool) error {
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

	// With -metrics, every cluster the experiments build picks up a
	// process-wide hub installed fresh per experiment, so each experiment's
	// counters and latency histograms are its own. The trace ring is sized
	// small: only the instruments matter here.
	if showObs {
		defer obs.SetDefault(nil)
	}

	for _, r := range selected {
		fmt.Printf("### %s: %s\nclaim: %s\n", r.ID, r.Title, r.Claim)
		var hub *obs.Hub
		if showObs {
			hub = obs.NewHub(obs.Options{TraceCapacity: 1})
			obs.SetDefault(hub)
		}
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
			fmt.Printf("%s protocol metrics:\n", r.ID)
			if err := hub.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}
