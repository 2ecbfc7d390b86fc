package main

import (
	"context"
	"os"
	"strings"

	"siterecovery/internal/chaos/proc"
	"siterecovery/internal/load"
	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

// runTCP drives a proc.Cluster of srnode OS processes over localhost TCP —
// direct links, no statedir, no export — through the HTTP control surface
// (POST /txn), and tears it down. Items are fully replicated: srnode's
// -items places every item at every site.
func runTCP(ctx context.Context, o options, name string) (load.Report, error) {
	bin := o.srnodeBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "srload-*")
		if err != nil {
			return load.Report{}, err
		}
		defer os.RemoveAll(dir)
		if bin, err = proc.Build(dir); err != nil {
			return load.Report{}, err
		}
	}
	items := make([]string, o.items)
	for i := range items {
		items[i] = string(workload.ItemName(i))
	}
	// Wound-wait: over real TCP a transaction holds hot locks across
	// multi-ms round trips, so cross-site deadlocks are common under skew
	// and waiting out the 2s lock timeout would dominate latency.
	c, err := proc.NewCluster(proc.Config{
		Bin:   bin,
		Sites: o.sites,
		Args:  []string{"-items", strings.Join(items, ","), "-lock", "wound"},
	})
	if err != nil {
		return load.Report{}, err
	}
	defer c.Stop()
	if err := c.Start(ctx); err != nil {
		return load.Report{}, err
	}

	var targets []load.Executor
	for i := 1; i <= o.sites; i++ {
		if site := proto.SiteID(i); !o.crash || site != crashSite {
			targets = append(targets, load.HTTPTarget(c.URL(site)))
		}
	}
	cfg := loadConfig(o, targets)
	cfg.Controller = c
	cfg.Faults = faultSchedule(o)

	res, err := load.Run(ctx, cfg)
	if err != nil {
		return load.Report{}, err
	}
	return res.Report(name, 0), nil
}
