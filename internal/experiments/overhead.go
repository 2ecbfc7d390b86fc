package experiments

import (
	"context"
	"fmt"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/load"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/workload"
)

// RunE5 measures the normal-operation cost of the session machinery: the
// full ROWAA protocol against strict ROWA (no session vector, no session
// checks) on an identical healthy cluster, plus the wound-wait lock policy
// as an ablation.
func RunE5(scale Scale) (*Table, error) {
	items, clients := 60, 6
	duration := 400 * time.Millisecond
	if scale == Full {
		duration = 3 * time.Second
		clients = 12
	}
	table := &Table{
		ID:      "E5",
		Title:   "Normal-operation overhead of the session machinery (healthy 3-site cluster)",
		Columns: []string{"config", "txn/s", "p50", "p99", "availability", "msgs/txn"},
		Notes: []string{
			"the ROWAA surcharge over strict ROWA is the implicit local read of the",
			"nominal session vector plus the carried session numbers: no extra messages",
		},
	}

	type variant struct {
		name   string
		cfgMod func(*core.Config)
	}
	variants := []variant{
		{name: "rowaa+sessions", cfgMod: func(c *core.Config) { c.Profile = replication.ROWAA }},
		{name: "rowa(no sessions)", cfgMod: func(c *core.Config) { c.Profile = replication.ROWA }},
		{name: "rowaa+woundwait", cfgMod: func(c *core.Config) {
			c.Profile = replication.ROWAA
			c.LockPolicy = lockmgr.PolicyWoundWait
		}},
		{name: "quorum", cfgMod: func(c *core.Config) { c.Profile = replication.Quorum }},
	}
	for _, v := range variants {
		cfg := core.Config{
			Sites:     3,
			Placement: workload.FullPlacement(items, 3),
		}
		v.cfgMod(&cfg)
		c, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		c.Start()

		ctx, cancel := context.WithTimeout(context.Background(), duration)
		targets, _ := load.ClusterTargets(c)
		res, err := load.Run(ctx, load.Config{
			Targets:     targets,
			Concurrency: clients,
			Seed:        5,
			Generator:   workload.GeneratorConfig{Items: c.Catalog().Items(), OpsPerTxn: 3, ReadFraction: 0.6},
		})
		cancel()
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("E5 %s: %w", v.name, err)
		}
		msgs := c.Network().TotalSent()
		c.Stop()

		perTxn := 0.0
		if res.Committed > 0 {
			perTxn = float64(msgs) / float64(res.Committed)
		}
		table.AddRow(
			v.name,
			fmt.Sprintf("%.0f", res.Throughput()),
			res.Latency.Quantile(0.50).Round(time.Microsecond).String(),
			res.Latency.Quantile(0.99).Round(time.Microsecond).String(),
			fmt.Sprintf("%.3f", res.Availability()),
			fmt.Sprintf("%.1f", perTxn),
		)
	}
	return table, nil
}

// RunE9 measures control-transaction activity: zero during failure-free
// operation, and a bounded burst per failure/recovery event, independent of
// user-transaction volume.
func RunE9(scale Scale) (*Table, error) {
	items, txns, cycles := 40, 1000, 2
	if scale == Full {
		txns, cycles = 6000, 6
	}
	table := &Table{
		ID:      "E9",
		Title:   "Control transactions are only necessary when sites fail or recover",
		Columns: []string{"sites", "fail_events", "user_txns", "type1_committed", "type2_committed", "ctrl_per_event"},
	}
	for _, sites := range []int{3, 5, 8} {
		for _, failCycles := range []int{0, cycles} {
			c, err := core.New(core.Config{
				Sites:     sites,
				Placement: workload.UniformPlacement(items, 3, sites, 11),
				Obs:       clusterHub(),
			})
			if err != nil {
				return nil, err
			}
			c.Start()

			// Clients coordinate everywhere but at the victim, so the same
			// arrivals run with and without the failures.
			victim := proto.SiteID(sites)
			targets, ctl := load.ClusterTargets(c, c.Sites()[:sites-1]...)
			faults := load.CrashRecoverCycles(victim, failCycles, txns)
			counts := []string{"txn/commit.user", "session/type1_committed", "session/type2_committed"}
			before := hubSums(c, counts, c.Sites()...)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			_, err = load.Run(ctx, load.Config{
				Targets:     targets,
				Txns:        txns,
				Concurrency: sites,
				Seed:        3,
				Generator:   workload.GeneratorConfig{Items: c.Catalog().Items(), OpsPerTxn: 2},
				Faults:      faults,
				Controller:  ctl,
			})
			cancel()
			if err != nil {
				c.Stop()
				return nil, fmt.Errorf("E9 driver: %w", err)
			}

			after := hubSums(c, counts, c.Sites()...)
			userTxns, t1, t2 := after[0]-before[0], after[1]-before[1], after[2]-before[2]
			c.Stop()

			perEvent := "n/a"
			if events := len(faults); events > 0 {
				perEvent = fmt.Sprintf("%.1f", float64(t1+t2)/float64(events))
			}
			table.AddRow(
				fmt.Sprintf("%d", sites),
				fmt.Sprintf("%d", len(faults)),
				fmt.Sprintf("%d", userTxns),
				fmt.Sprintf("%d", t1),
				fmt.Sprintf("%d", t2),
				perEvent,
			)
		}
	}
	return table, nil
}
