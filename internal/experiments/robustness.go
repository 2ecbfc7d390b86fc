package experiments

import (
	"context"
	"fmt"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/core"
	"siterecovery/internal/load"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

// RunE6 exercises the multiple-failure scenarios of §3.4: overlapping
// outages, a peer crashing while another site is recovering (forcing the
// type-1 to abort and a type-2 to exclude the fresh crash), and recovery
// down to a single operational survivor.
func RunE6(scale Scale) (*Table, error) {
	items := 30
	if scale == Full {
		items = 100
	}
	table := &Table{
		ID:      "E6",
		Title:   "Robustness to multiple failures (5 sites, full replication)",
		Columns: []string{"scenario", "recovered", "type1_failed", "type2_by_recoverer", "converged"},
		Notes: []string{
			"a failed site can recover as long as one operational site remains (§3.4)",
		},
	}

	type scenario struct {
		name string
		run  func(c *core.Cluster) (proto.SiteID, error)
	}
	scenarios := []scenario{
		{
			name: "single crash",
			run: func(c *core.Cluster) (proto.SiteID, error) {
				c.Crash(5)
				return 5, seedUpdates(c, 10)
			},
		},
		{
			name: "two overlapping crashes, staggered recovery",
			run: func(c *core.Cluster) (proto.SiteID, error) {
				c.Crash(4)
				c.Crash(5)
				if err := seedUpdates(c, 10); err != nil {
					return 0, err
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if _, err := c.Recover(ctx, 4); err != nil {
					return 0, err
				}
				return 5, nil
			},
		},
		{
			name: "peer crashes during recovery (nominally up, actually down)",
			run: func(c *core.Cluster) (proto.SiteID, error) {
				// Crash 5 (the one that will recover), then crash 4
				// without any traffic: 4 stays nominally up, so 5's
				// type-1 discovers the corpse mid-claim.
				c.Crash(5)
				if err := seedUpdates(c, 10); err != nil {
					return 0, err
				}
				c.Crash(4)
				return 5, nil
			},
		},
		{
			name: "one survivor out of five",
			run: func(c *core.Cluster) (proto.SiteID, error) {
				c.Crash(2)
				c.Crash(3)
				c.Crash(4)
				c.Crash(5)
				return 5, nil
			},
		},
	}
	for _, sc := range scenarios {
		c, err := core.New(core.Config{
			Sites:     5,
			Placement: workload.FullPlacement(items, 5),
			Obs:       clusterHub(),
		})
		if err != nil {
			return nil, err
		}
		c.Start()

		victim, err := sc.run(c)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("E6 %q setup: %w", sc.name, err)
		}
		claims := []string{"session/type1_failed", "session/type2_committed"}
		before := hubSums(c, claims, victim)
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		_, err = c.Recover(ctx, victim)
		recovered := err == nil
		converged := "n/a"
		if recovered {
			if err := c.WaitCurrent(ctx, victim); err == nil {
				if chaos.CopiesConverged().Check(c, chaos.Info{}) == nil {
					converged = "yes"
				} else {
					converged = "no"
				}
			}
		}
		after := hubSums(c, claims, victim)
		cancel()
		c.Stop()
		table.AddRow(
			sc.name,
			fmt.Sprintf("%v", recovered),
			fmt.Sprintf("%d", after[0]-before[0]),
			fmt.Sprintf("%d", after[1]-before[1]),
			converged,
		)
	}
	return table, nil
}

// seedUpdates commits n writes from site 1 (retrying through failure
// detection).
func seedUpdates(c *core.Cluster, n int) error {
	items := c.Catalog().Items()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		item := items[i%len(items)]
		deadline := time.Now().Add(15 * time.Second)
		for {
			err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
				return tx.Write(ctx, item, proto.Value(i))
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("seed update %d: %w", i, err)
			}
		}
	}
	return nil
}

// RunE10 stress-tests the session-number lifecycle: a site crash/recover
// cycles repeatedly under continuous writer traffic; every stale physical
// request must be rejected by the session check, so the run must certify
// 1-SR and converge, and every recovery must use a fresh session number.
func RunE10(scale Scale) (*Table, error) {
	cycles := 4
	items := 12
	if scale == Full {
		cycles = 12
	}
	table := &Table{
		ID:      "E10",
		Title:   "Session lifecycle under repeated fail/recover cycles with live writers",
		Columns: []string{"cycles", "sessions_used", "unique", "one_sr", "converged"},
	}
	c, err := core.New(core.Config{
		Sites:     3,
		Placement: workload.FullPlacement(items, 3),
		Identify:  recovery.IdentifyFailLock,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	driverCtx, stopDriver := context.WithCancel(ctx)
	driverDone := make(chan error, 1)
	go func() {
		targets, _ := load.ClusterTargets(c, 1, 2)
		_, err := load.Run(driverCtx, load.Config{
			Targets:     targets,
			Concurrency: 2,
			Seed:        9,
			Generator:   workload.GeneratorConfig{Items: c.Catalog().Items(), OpsPerTxn: 2, ReadFraction: 0.3},
		})
		driverDone <- err
	}()

	sessions := map[proto.Session]bool{core.InitialSession: true}
	unique := true
	for i := 0; i < cycles; i++ {
		c.Crash(3)
		time.Sleep(30 * time.Millisecond) // let writers miss some updates
		report, err := c.Recover(ctx, 3)
		if err != nil {
			stopDriver()
			<-driverDone
			return nil, fmt.Errorf("E10 cycle %d: %w", i, err)
		}
		if sessions[report.Session] {
			unique = false
		}
		sessions[report.Session] = true
		if err := c.WaitCurrent(ctx, 3); err != nil {
			stopDriver()
			<-driverDone
			return nil, err
		}
	}
	stopDriver()
	if err := <-driverDone; err != nil {
		return nil, err
	}

	ok := chaos.OneSR().Check(c, chaos.Info{}) == nil
	// Quiesce fully before the convergence check.
	for _, s := range c.Sites() {
		waitCtx, waitCancel := context.WithTimeout(ctx, 60*time.Second)
		err := c.WaitCurrent(waitCtx, s)
		waitCancel()
		if err != nil {
			return nil, err
		}
	}
	// Janitors may still be delivering outcomes for transactions whose
	// clients went away; give convergence a bounded window.
	converged := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if chaos.CopiesConverged().Check(c, chaos.Info{}) == nil {
			converged = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	table.AddRow(
		fmt.Sprintf("%d", cycles),
		fmt.Sprintf("%d", len(sessions)),
		fmt.Sprintf("%v", unique),
		fmt.Sprintf("%v", ok),
		fmt.Sprintf("%v", converged),
	)
	return table, nil
}
