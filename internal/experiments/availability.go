package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

// availabilityCluster builds a cluster, crashes the given sites, and (for
// the session protocol) marks them nominally down so steady-state
// availability is measured rather than detection transients.
func availabilityCluster(profile replication.Profile, sites, items, degree int, seed int64, down []proto.SiteID) (*core.Cluster, error) {
	c, err := core.New(core.Config{
		Sites:     sites,
		Placement: workload.UniformPlacement(items, degree, sites, seed),
		Profile:   profile,
		// Availability is a single-attempt property: retries would only
		// mask it (and crashed sites stay crashed for the measurement).
		MaxAttempts:       1,
		DisableBackground: true,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	for _, d := range down {
		c.Crash(d)
	}
	if profile.UsesSessionVector && len(down) > 0 {
		// Establish the consistent view a running system would have
		// reached: one surviving site claims the crashed ones down.
		claimer := proto.SiteID(0)
		for _, s := range c.Sites() {
			if c.Site(s).Up() {
				claimer = s
				break
			}
		}
		if claimer != 0 {
			claims := make(map[proto.SiteID]proto.Session, len(down))
			for _, d := range down {
				claims[d] = core.InitialSession
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := c.Site(claimer).Session.ClaimDownMany(ctx, claims)
			cancel()
			if err != nil {
				c.Stop()
				return nil, fmt.Errorf("claim %v down: %w", down, err)
			}
		}
	}
	return c, nil
}

// measureOpAvailability attempts one read and one write transaction per
// item from surviving sites and returns the success fractions.
func measureOpAvailability(c *core.Cluster, down map[proto.SiteID]bool) (readAvail, writeAvail float64) {
	survivors := make([]proto.SiteID, 0)
	for _, s := range c.Sites() {
		if !down[s] {
			survivors = append(survivors, s)
		}
	}
	if len(survivors) == 0 {
		return 0, 0
	}
	var readOK, writeOK, attempts int
	ctx := context.Background()
	for i, item := range c.Catalog().Items() {
		site := survivors[i%len(survivors)]
		attempts++
		err := c.Exec(ctx, site, func(ctx context.Context, tx *txn.Tx) error {
			_, err := tx.Read(ctx, item)
			return err
		})
		if err == nil {
			readOK++
		}
		err = c.Exec(ctx, site, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, item, proto.Value(i))
		})
		if err == nil {
			writeOK++
		}
	}
	return float64(readOK) / float64(attempts), float64(writeOK) / float64(attempts)
}

// RunE1 measures read and write availability against the number of failed
// sites for every replication strategy.
func RunE1(scale Scale) (*Table, error) {
	sites, items, degree := 5, 30, 3
	if scale == Full {
		items = 120
	}
	table := &Table{
		ID:      "E1",
		Title:   "Operation availability vs failed sites (5 sites, 3-way replication)",
		Columns: []string{"failed", "strategy", "read_avail", "write_avail"},
		Notes: []string{
			"rowaa keeps an operation available while one replica is at a nominally-up site",
			"rowa loses write availability as soon as any replica site is down",
			"quorum needs a majority of each item's replicas",
			"naive stays available but is incorrect (see E7)",
		},
	}
	profiles := []replication.Profile{
		replication.ROWAA, replication.ROWA, replication.Quorum, replication.Naive,
	}
	for failed := 0; failed < sites; failed++ {
		down := make([]proto.SiteID, 0, failed)
		downSet := make(map[proto.SiteID]bool, failed)
		for i := 0; i < failed; i++ {
			id := proto.SiteID(sites - i) // crash highest IDs first
			down = append(down, id)
			downSet[id] = true
		}
		for _, p := range profiles {
			c, err := availabilityCluster(p, sites, items, degree, 42, down)
			if err != nil {
				return nil, fmt.Errorf("E1 %s failed=%d: %w", p.Name, failed, err)
			}
			r, w := measureOpAvailability(c, downSet)
			c.Stop()
			table.AddRow(
				fmt.Sprintf("%d", failed), p.Name,
				fmt.Sprintf("%.3f", r), fmt.Sprintf("%.3f", w),
			)
		}
	}
	return table, nil
}

// RunE2 measures write availability as a function of independent per-site
// uptime probability, sampling random down-sets.
func RunE2(scale Scale) (*Table, error) {
	sites, items, degree := 5, 20, 3
	trials := 8
	if scale == Full {
		trials = 30
	}
	table := &Table{
		ID:      "E2",
		Title:   "Write availability vs per-site uptime p (5 sites, 3-way replication)",
		Columns: []string{"uptime_p", "strategy", "write_avail"},
		Notes: []string{
			"each trial samples an independent up/down state per site",
			"rowaa: writable iff some replica is up; rowa: iff all replicas are up",
		},
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		for _, profile := range []replication.Profile{replication.ROWAA, replication.ROWA, replication.Quorum} {
			var ok, attempts int
			for trial := 0; trial < trials; trial++ {
				var down []proto.SiteID
				downSet := make(map[proto.SiteID]bool)
				for s := 1; s <= sites; s++ {
					if rng.Float64() > p {
						down = append(down, proto.SiteID(s))
						downSet[proto.SiteID(s)] = true
					}
				}
				if len(down) == sites {
					// keep one site so a coordinator exists
					keep := down[len(down)-1]
					down = down[:len(down)-1]
					delete(downSet, keep)
				}
				c, err := availabilityCluster(profile, sites, items, degree, int64(trial+1), down)
				if err != nil {
					return nil, fmt.Errorf("E2 %s p=%.1f: %w", profile.Name, p, err)
				}
				_, w := measureOpAvailability(c, downSet)
				ok += int(w * float64(items))
				attempts += items
				c.Stop()
			}
			table.AddRow(
				fmt.Sprintf("%.1f", p), profile.Name,
				fmt.Sprintf("%.3f", float64(ok)/float64(attempts)),
			)
		}
	}
	return table, nil
}
