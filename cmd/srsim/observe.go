package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/core"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

// runObserve replaces the timed concurrent workload with a scripted,
// strictly sequential failure/recovery scenario and dumps the observability
// hub at the end. With zero network latency, no background detector or
// janitor, and a single copier worker, every protocol message happens in a
// fixed order, so the trace and the metrics table are byte-identical across
// runs at the same seed — which is what makes them diffable in CI. The hub
// stamps events from a logical step clock (one tick per event), so even the
// timestamps, the latency histograms they feed, and the JSONL export are
// deterministic; durations in that trace count protocol events, not wall
// time.
func runObserve(sites, items, degree int, seed int64, identifyName string, showMetrics, showTrace bool, exportPath string) error {
	if sites < 3 {
		return fmt.Errorf("observability demo needs at least 3 sites (have %d)", sites)
	}
	if degree < 2 {
		return fmt.Errorf("observability demo needs replication degree >= 2 (have %d)", degree)
	}
	ident, err := recovery.ParseIdentify(identifyName)
	if err != nil {
		return err
	}

	var sinks []obs.Sink
	var sink *export.JSONL
	if exportPath != "" {
		sink, err = export.Create(exportPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := sink.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "srsim: export:", cerr)
			}
		}()
		sinks = append(sinks, sink)
	}
	hub := obs.NewHub(obs.Options{
		Clock: clock.NewStep(time.Unix(0, 0).UTC(), time.Millisecond),
		Sinks: sinks,
	})
	cluster, err := core.New(core.Config{
		Sites:             sites,
		Placement:         workload.UniformPlacement(items, degree, sites, seed),
		Identify:          ident,
		Seed:              seed,
		MaxAttempts:       2,
		DisableBackground: true,
		CopierWorkers:     1,
		Obs:               hub,
	})
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const (
		coord = proto.SiteID(1)
		down  = proto.SiteID(2)
	)
	// The demo item must live at the site we crash, and at some third site
	// so a partition isolating the coordinator still has a remote replica
	// to fail against.
	var demoItem proto.Item
	for _, item := range cluster.Catalog().Items() {
		if !cluster.Catalog().HasReplica(item, down) {
			continue
		}
		replicas, err := cluster.Catalog().Replicas(item)
		if err != nil {
			return err
		}
		for _, r := range replicas {
			if r != coord && r != down {
				demoItem = item
				break
			}
		}
		if demoItem != "" {
			break
		}
	}
	if demoItem == "" {
		return fmt.Errorf("no item replicated at site %v and a third site; raise -items or -degree", down)
	}

	fmt.Printf("observability demo: %d sites, %d items, %d-way replication, identify=%s, seed=%d\n",
		sites, items, degree, ident, seed)
	fmt.Printf("demo item %q, coordinator %v\n\n", demoItem, coord)

	bump := func() error {
		return cluster.Exec(ctx, coord, func(ctx context.Context, tx *txn.Tx) error {
			v, err := tx.Read(ctx, demoItem)
			if err != nil {
				return err
			}
			return tx.Write(ctx, demoItem, v+1)
		})
	}

	for i := 0; i < 3; i++ {
		if err := bump(); err != nil {
			return fmt.Errorf("warm-up transaction: %w", err)
		}
	}
	fmt.Println("warm-up: 3 read-modify-write transactions committed")

	cluster.Crash(down)
	fmt.Printf("crash: %v fail-stops\n", down)

	fmt.Printf("write with %v still nominally up: %s\n", down, outcome(bump()))

	if err := cluster.Site(coord).Session.ClaimDown(ctx, down, core.InitialSession); err != nil {
		return fmt.Errorf("type-2 control transaction: %w", err)
	}
	fmt.Printf("type-2 control transaction: %v claims %v down\n", coord, down)

	if err := bump(); err != nil {
		return fmt.Errorf("write after type-2: %w", err)
	}
	fmt.Println("write after type-2: committed against the surviving replicas")

	cluster.Network().Partition([]proto.SiteID{coord})
	fmt.Printf("partition: %v isolated from the rest\n", coord)
	fmt.Printf("write across the partition: %s\n", outcome(bump()))
	cluster.Network().Heal()
	fmt.Println("heal: partition removed")
	if err := bump(); err != nil {
		return fmt.Errorf("write after heal: %w", err)
	}
	fmt.Println("write after heal: committed")

	report, err := cluster.Recover(ctx, down)
	if err != nil {
		return fmt.Errorf("recover site %v: %w", down, err)
	}
	fmt.Printf("recover: %v operational under session %d (type-1 committed), %d copies marked\n",
		down, report.Session, report.Marked)
	if err := cluster.WaitCurrent(ctx, down); err != nil {
		return fmt.Errorf("wait current: %w", err)
	}
	fmt.Printf("copiers: %v fully current again\n", down)

	// A request carrying the pre-crash session number must be rejected: the
	// stale sender would otherwise read a copy refreshed under a
	// configuration it does not know about.
	var probeErr error
	err = cluster.Exec(ctx, coord, func(ctx context.Context, tx *txn.Tx) error {
		_, _, probeErr = tx.RawRead(ctx, down, demoItem, txn.RawReadOpt{
			Mode:   proto.CheckSession,
			Expect: core.InitialSession,
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("stale-session probe: %w", err)
	}
	if !errors.Is(probeErr, proto.ErrSessionMismatch) {
		return fmt.Errorf("stale-session probe: want session mismatch, got %v", probeErr)
	}
	fmt.Printf("stale-session probe: read at %v carrying session %d rejected (%s)\n",
		down, core.InitialSession, outcome(probeErr))

	if err := bump(); err != nil {
		return fmt.Errorf("final write: %w", err)
	}
	fmt.Println("final write: committed with the full replica set")

	if ok, cycle := cluster.CertifyOneSR(); ok {
		fmt.Println("history: certified one-serializable")
	} else {
		fmt.Printf("history: NOT certified 1-SR; cycle %v\n", cycle)
	}
	if div := cluster.CopiesConverged(); len(div) == 0 {
		fmt.Println("copies: converged at all operational sites")
	} else {
		fmt.Printf("copies: DIVERGENT: %v\n", div)
	}

	if showMetrics {
		fmt.Println("\n--- metrics ---")
		if err := hub.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if showTrace {
		tr := hub.Tracer()
		fmt.Printf("\n--- trace (%d events) ---\n", tr.Len())
		// Step-clock offsets are deterministic, so the timed rendering is
		// still byte-stable across runs.
		if err := tr.WriteText(os.Stdout, obs.TextOptions{Times: true}); err != nil {
			return err
		}
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return err
		}
		fmt.Printf("\nexported %d events to %s\n", sink.Count(), exportPath)
	}
	return nil
}

// outcome renders a transaction result as a short deterministic label.
func outcome(err error) string {
	if err == nil {
		return "ok"
	}
	return "rejected: " + obs.AbortReason(err)
}
