package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

// clusterHub is the hub an experiment's clusters emit into and its counts
// are read from: the one srbench -metrics installs per experiment, so the
// metrics table still shows them, or else a private one.
func clusterHub() *obs.Hub {
	if h := obs.Default(); h != nil {
		return h
	}
	return obs.NewHub(obs.Options{TraceCapacity: 1})
}

// hubSums reads named hub counters ("copier/data_copy") summed over sites.
// The clusters one experiment builds can share srbench's hub, so a
// cluster's own counts are the difference of two reads.
func hubSums(c *core.Cluster, names []string, sites ...proto.SiteID) []int64 {
	out := make([]int64, len(names))
	for i, name := range names {
		sub, n, _ := strings.Cut(name, "/")
		for _, s := range sites {
			out[i] += c.Obs().Value(s, sub, n)
		}
	}
	return out
}

// copierCounts are the recovered site's copier transactions committed, data
// copies and version skips.
var copierCounts = []string{"txn/commit.copier", "copier/data_copy", "copier/version_skip"}

// recoveryCluster builds a fully replicated 3-site cluster for recovery
// latency experiments.
func recoveryCluster(items int, method core.RecoveryMethod, identify recovery.Identify, copier recovery.CopierMode) (*core.Cluster, error) {
	c, err := core.New(core.Config{
		Sites:      3,
		Placement:  workload.FullPlacement(items, 3),
		Method:     method,
		Identify:   identify,
		CopierMode: copier,
		Obs:        clusterHub(),
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	return c, nil
}

// missUpdates crashes the victim and commits n updates spread over the
// items (round-robin), which the victim misses.
func missUpdates(c *core.Cluster, victim proto.SiteID, n int) error {
	c.Crash(victim)
	items := c.Catalog().Items()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		item := items[i%len(items)]
		deadline := time.Now().Add(15 * time.Second)
		for {
			err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
				return tx.Write(ctx, item, proto.Value(1000+i))
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("update %d never committed: %w", i, err)
			}
		}
	}
	return nil
}

// RunE3 compares time-to-operational (and time-to-fully-current) between
// the paper's copier protocol and the message-spooler baseline as the
// number of missed updates grows.
func RunE3(scale Scale) (*Table, error) {
	items := 120
	missCounts := []int{0, 40, 120, 360}
	if scale == Full {
		items = 400
		missCounts = []int{0, 100, 400, 1200, 4000}
	}
	table := &Table{
		ID:      "E3",
		Title:   "Recovery latency vs missed updates (3 sites, full replication)",
		Columns: []string{"missed", "method", "time_to_operational", "time_to_current", "replayed/copied"},
		Notes: []string{
			"the paper's protocol becomes operational after a constant-cost control transaction;",
			"copiers refresh data afterwards, concurrently with user transactions",
			"the spooler baseline replays every missed update before resuming operations",
		},
	}
	for _, missed := range missCounts {
		// Paper protocol (copiers, fail-lock identification).
		{
			c, err := recoveryCluster(items, core.MethodCopiers, recovery.IdentifyFailLock, recovery.CopierEager)
			if err != nil {
				return nil, err
			}
			if err := missUpdates(c, 3, missed); err != nil {
				c.Stop()
				return nil, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			before := hubSums(c, copierCounts, 3)
			start := time.Now()
			report, err := c.Recover(ctx, 3)
			if err != nil {
				cancel()
				c.Stop()
				return nil, fmt.Errorf("E3 copiers missed=%d: %w", missed, err)
			}
			if err := c.WaitCurrent(ctx, 3); err != nil {
				cancel()
				c.Stop()
				return nil, err
			}
			current := time.Since(start)
			copied := hubSums(c, copierCounts, 3)[1] - before[1]
			cancel()
			c.Stop()
			table.AddRow(
				fmt.Sprintf("%d", missed), "paper(copiers)",
				report.TimeToOperational.Round(10*time.Microsecond).String(),
				current.Round(10*time.Microsecond).String(),
				fmt.Sprintf("%d", copied),
			)
		}
		// Spooler baseline.
		{
			c, err := recoveryCluster(items, core.MethodSpooler, recovery.IdentifyMarkAll, recovery.CopierEager)
			if err != nil {
				return nil, err
			}
			if err := missUpdates(c, 3, missed); err != nil {
				c.Stop()
				return nil, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			report, err := c.Recover(ctx, 3)
			if err != nil {
				cancel()
				c.Stop()
				return nil, fmt.Errorf("E3 spooler missed=%d: %w", missed, err)
			}
			cancel()
			c.Stop()
			table.AddRow(
				fmt.Sprintf("%d", missed), "spooler",
				report.TimeToOperational.Round(10*time.Microsecond).String(),
				report.TimeToOperational.Round(10*time.Microsecond).String(),
				fmt.Sprintf("%d", report.Replayed),
			)
		}
	}
	return table, nil
}

// RunE4 compares the §5 identification strategies by the copier work they
// cause as a function of how much of the database changed during the
// outage.
func RunE4(scale Scale) (*Table, error) {
	items := 100
	if scale == Full {
		items = 400
	}
	fractions := []float64{0.01, 0.10, 0.50, 1.00}
	table := &Table{
		ID:      "E4",
		Title:   "Identification strategies: copier work vs fraction updated during outage",
		Columns: []string{"updated_frac", "strategy", "marked", "copiers_run", "data_copies", "version_skips"},
		Notes: []string{
			"markall refreshes everything; versiondiff probes everything but transfers only changed items;",
			"faillock and missinglist mark exactly the changed items",
		},
	}
	strategies := []recovery.Identify{
		recovery.IdentifyMarkAll, recovery.IdentifyVersionDiff,
		recovery.IdentifyFailLock, recovery.IdentifyMissingList,
	}
	for _, frac := range fractions {
		updates := int(frac * float64(items))
		for _, ident := range strategies {
			c, err := recoveryCluster(items, core.MethodCopiers, ident, recovery.CopierEager)
			if err != nil {
				return nil, err
			}
			if err := missUpdates(c, 3, updates); err != nil {
				c.Stop()
				return nil, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			before := hubSums(c, copierCounts, 3)
			report, err := c.Recover(ctx, 3)
			if err != nil {
				cancel()
				c.Stop()
				return nil, fmt.Errorf("E4 %v frac=%.2f: %w", ident, frac, err)
			}
			if err := c.WaitCurrent(ctx, 3); err != nil {
				cancel()
				c.Stop()
				return nil, err
			}
			after := hubSums(c, copierCounts, 3)
			cancel()
			c.Stop()
			table.AddRow(
				fmt.Sprintf("%.2f", frac), ident.String(),
				fmt.Sprintf("%d", report.Marked),
				fmt.Sprintf("%d", after[0]-before[0]),
				fmt.Sprintf("%d", after[1]-before[1]),
				fmt.Sprintf("%d", after[2]-before[2]),
			)
		}
	}
	return table, nil
}

// RunE8 compares eager and on-demand copier scheduling: time until the
// recovered site is fully current, and the latency its local reads see
// right after recovery.
func RunE8(scale Scale) (*Table, error) {
	items := 80
	if scale == Full {
		items = 300
	}
	table := &Table{
		ID:      "E8",
		Title:   "Copier policy: eager vs on-demand (everything stale at recovery)",
		Columns: []string{"policy", "time_to_current", "reads_served", "read_p99", "copiers_run"},
		Notes: []string{
			"on-demand defers refresh cost to first reads; correctness is unaffected (§3.2)",
		},
	}
	for _, mode := range []recovery.CopierMode{recovery.CopierEager, recovery.CopierOnDemand} {
		name := "eager"
		if mode == recovery.CopierOnDemand {
			name = "on-demand"
		}
		c, err := recoveryCluster(items, core.MethodCopiers, recovery.IdentifyMarkAll, mode)
		if err != nil {
			return nil, err
		}
		if err := missUpdates(c, 3, items); err != nil {
			c.Stop()
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		before := hubSums(c, copierCounts, 3)
		start := time.Now()
		if _, err := c.Recover(ctx, 3); err != nil {
			cancel()
			c.Stop()
			return nil, fmt.Errorf("E8 %s: %w", name, err)
		}

		// Read the whole database once from the recovered site; on-demand
		// mode pays the refresh inside these reads.
		var hist readLatencies
		for _, item := range c.Catalog().Items() {
			t0 := time.Now()
			deadline := time.Now().Add(20 * time.Second)
			for {
				err := c.Exec(ctx, 3, func(ctx context.Context, tx *txn.Tx) error {
					_, err := tx.Read(ctx, item)
					return err
				})
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					cancel()
					c.Stop()
					return nil, fmt.Errorf("E8 %s: read %s: %w", name, item, err)
				}
			}
			hist.observe(time.Since(t0))
		}
		if err := c.WaitCurrent(ctx, 3); err != nil {
			cancel()
			c.Stop()
			return nil, err
		}
		current := time.Since(start)
		copiers := hubSums(c, copierCounts, 3)[0] - before[0]
		cancel()
		c.Stop()
		table.AddRow(
			name,
			current.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%d", len(hist.samples)),
			hist.quantile(0.99).Round(10*time.Microsecond).String(),
			fmt.Sprintf("%d", copiers),
		)
	}
	return table, nil
}

// readLatencies is a tiny exact-quantile collector (sample counts here are
// small enough to sort).
type readLatencies struct {
	samples []time.Duration
}

func (r *readLatencies) observe(d time.Duration) { r.samples = append(r.samples, d) }

func (r *readLatencies) quantile(q float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
