// Command srsim runs an interactive-scale simulation: a cluster under a
// configurable workload and failure schedule, with a narrated event log and
// a final verification (one-serializability certificate + copy
// convergence).
//
// Usage:
//
//	srsim -sites 5 -items 50 -degree 3 -clients 8 -duration 2s \
//	      -crash 3@300ms -recover 3@900ms -identify faillock
//
// With -trace and/or -metrics, srsim instead runs a deterministic scripted
// crash/partition/recovery scenario and dumps the observability hub — the
// event trace and/or the per-site metrics table — at exit. The scripted
// scenario stamps events from a logical step clock, so that output (JSONL
// timestamps included) is byte-identical across runs at the same seed;
// pipe the export through srtrace for availability windows and latency
// percentiles.
//
// With -http addr, srsim serves live introspection while the interactive
// workload runs: /metrics (Prometheus text), /trace?n=K (recent events),
// and /sites (per-site session status).
//
// With -chaos, srsim instead runs the seeded chaos engine: it generates a
// randomized fault schedule (-seed, -steps), executes it deterministically,
// writes the schedule and the byte-stable observability trace to -outdir,
// and checks the post-run invariant suite. On a violation it delta-debugs
// the schedule to a minimal reproducer, writes it next to the others, and
// exits 1. -schedule FILE replays a previously written schedule instead.
//
// -export FILE streams every event of whichever mode runs to FILE as JSONL
// — deterministic under the scripted scenario (-trace/-metrics), wall-clock
// stamped under the interactive workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/load"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/obshttp"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/workload"
)

// event is one -crash or -recover flag entry.
type event struct {
	after time.Duration // offset from workload start
	site  proto.SiteID
	crash bool
}

type eventFlags []event

func (e *eventFlags) add(crash bool, spec string) error {
	parts := strings.SplitN(spec, "@", 2)
	if len(parts) != 2 {
		return fmt.Errorf("event %q: want site@offset (e.g. 3@300ms)", spec)
	}
	site, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("event %q: bad site: %w", spec, err)
	}
	after, err := time.ParseDuration(parts[1])
	if err != nil {
		return fmt.Errorf("event %q: bad offset: %w", spec, err)
	}
	*e = append(*e, event{after: after, site: proto.SiteID(site), crash: crash})
	return nil
}

func main() {
	var (
		sites    = flag.Int("sites", 5, "number of sites")
		items    = flag.Int("items", 50, "number of logical items")
		degree   = flag.Int("degree", 3, "replication degree")
		clients  = flag.Int("clients", 8, "closed-loop clients")
		duration = flag.Duration("duration", 2*time.Second, "workload duration")
		profile  = flag.String("profile", "rowaa", "replication profile: rowaa|rowa|naive|quorum")
		identify = flag.String("identify", "markall", "identification: markall|versiondiff|faillock|missinglist")
		spooler  = flag.Bool("spooler", false, "use the message-spooler recovery baseline")
		seed     = flag.Int64("seed", 1, "simulation seed")
		crashes  = flag.String("crash", "", "comma-separated crash events site@offset")
		recovers = flag.String("recover", "", "comma-separated recover events site@offset")
		trace    = flag.Bool("trace", false, "run the deterministic scenario and dump the event trace")
		metrics  = flag.Bool("metrics", false, "run the deterministic scenario and dump the metrics table")
		export   = flag.String("export", "", "stream every traced event to this JSONL file (follows the selected mode)")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /trace, /sites) on this address during the interactive run")
		chaosRun = flag.Bool("chaos", false, "run a seeded chaos schedule and check the invariant suite")
		steps    = flag.Int("steps", 40, "chaos schedule length (with -chaos)")
		schedule = flag.String("schedule", "", "replay this chaos schedule file instead of generating one (implies -chaos)")
		outDir   = flag.String("outdir", ".", "directory for chaos schedule/trace/reproducer files")
	)
	flag.Parse()
	var err error
	if *chaosRun || *schedule != "" {
		err = runChaos(*sites, *items, *degree, *seed, *steps, *identify, *schedule, *outDir)
	} else if *httpAddr == "" && (*trace || *metrics) {
		err = runObserve(*sites, *items, *degree, *seed, *identify, *metrics, *trace, *export)
	} else {
		err = run(*sites, *items, *degree, *clients, *duration, *profile, *identify, *spooler, *seed, *crashes, *recovers, *httpAddr, *export)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "srsim:", err)
		os.Exit(1)
	}
}

func run(sites, items, degree, clients int, duration time.Duration, profileName, identifyName string, spool bool, seed int64, crashes, recovers, httpAddr, exportPath string) error {
	prof, err := replication.ProfileByName(profileName)
	if err != nil {
		return err
	}
	ident, err := recovery.ParseIdentify(identifyName)
	if err != nil {
		return err
	}
	method := core.MethodCopiers
	if spool {
		method = core.MethodSpooler
	}

	// The hub feeds -http, -export and the run summary's counts.
	var sinks []obs.Sink
	if exportPath != "" {
		sink, err := export.Create(exportPath)
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
	hub := obs.NewHub(obs.Options{Sinks: sinks})

	var schedule eventFlags
	for _, spec := range splitNonEmpty(crashes) {
		if err := schedule.add(true, spec); err != nil {
			return err
		}
	}
	for _, spec := range splitNonEmpty(recovers) {
		if err := schedule.add(false, spec); err != nil {
			return err
		}
	}
	sort.Slice(schedule, func(i, j int) bool { return schedule[i].after < schedule[j].after })

	cluster, err := core.New(core.Config{
		Sites:     sites,
		Placement: workload.UniformPlacement(items, degree, sites, seed),
		Profile:   prof,
		Identify:  ident,
		Method:    method,
		Seed:      seed,
		Obs:       hub,
	})
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Stop()

	if httpAddr != "" {
		srv, err := obshttp.Start(httpAddr, obshttp.Config{Hub: hub, Sites: siteStatus(cluster)})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("introspection: http://%s/ (metrics, trace, sites)\n", srv.Addr())
	}

	fmt.Printf("cluster: %d sites, %d items, %d-way replication, profile=%s, identify=%s, method=%v\n",
		sites, items, degree, prof.Name, ident, method)

	ctx, cancel := context.WithTimeout(context.Background(), duration+60*time.Second)
	defer cancel()

	var res load.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		driverCtx, stop := context.WithTimeout(ctx, duration)
		defer stop()
		targets, _ := load.ClusterTargets(cluster)
		res, runErr = load.Run(driverCtx, load.Config{
			Targets:     targets,
			Concurrency: clients,
			Seed:        seed,
			Generator: workload.GeneratorConfig{
				Items: cluster.Catalog().Items(), OpsPerTxn: 3, ReadFraction: 0.6, Dist: workload.Zipf,
			},
		})
	}()

	start := time.Now()
	for _, ev := range schedule {
		wait := ev.after - time.Since(start)
		if wait > 0 {
			time.Sleep(wait)
		}
		if ev.crash {
			cluster.Crash(ev.site)
			fmt.Printf("%8s  CRASH    %v\n", time.Since(start).Round(time.Millisecond), ev.site)
		} else {
			go func(site proto.SiteID) {
				report, err := cluster.Recover(ctx, site)
				if err != nil {
					fmt.Printf("%8s  RECOVERY FAILED %v: %v\n", time.Since(start).Round(time.Millisecond), site, err)
					return
				}
				fmt.Printf("%8s  RECOVER  %v session=%d marked=%d replayed=%d tto=%s\n",
					time.Since(start).Round(time.Millisecond), site,
					report.Session, report.Marked, report.Replayed,
					report.TimeToOperational.Round(10*time.Microsecond))
			}(ev.site)
		}
	}

	<-done
	if runErr != nil {
		return runErr
	}

	// Quiesce and verify.
	for _, s := range cluster.Sites() {
		if cluster.Site(s).Up() && cluster.Site(s).Operational() {
			if err := cluster.WaitCurrent(ctx, s); err != nil {
				return fmt.Errorf("wait current %v: %w", s, err)
			}
		}
	}

	fmt.Println()
	fmt.Printf("committed:    %d (%.0f txn/s)\n", res.Committed, res.Throughput())
	fmt.Printf("failed:       %d (availability %.3f)\n", res.Failed, res.Availability())
	fmt.Printf("latency:      p50=%s p99=%s max=%s\n",
		res.Latency.Quantile(0.5), res.Latency.Quantile(0.99), res.Latency.Max())
	fmt.Printf("messages:     %d total\n", hub.Sum("net", "sent"))
	for _, s := range cluster.Sites() {
		t1, t2 := hub.Value(s, "session", "type1_committed"), hub.Value(s, "session", "type2_committed")
		copiers := hub.Value(s, "txn", "commit.copier")
		if t1+t2+copiers > 0 {
			fmt.Printf("site %v:       type1=%d type2=%d copiers=%d copies=%d\n",
				s, t1, t2, copiers, hub.Value(s, "copier", "data_copy"))
		}
	}

	ok, cycle := cluster.CertifyOneSR()
	if ok {
		fmt.Println("history:      certified one-serializable (revised 1-STG acyclic)")
	} else {
		fmt.Printf("history:      NOT certified 1-SR; cycle %v\n", cycle)
	}
	if div := cluster.CopiesConverged(); len(div) == 0 {
		fmt.Println("copies:       converged at all operational sites")
	} else {
		fmt.Printf("copies:       DIVERGENT: %v\n", div)
	}
	if prof.Name == replication.Naive.Name {
		fmt.Println("(the naive profile is expected to diverge under failures — that is the paper's point)")
	}
	return nil
}

// siteStatus adapts a cluster to the introspection server's /sites feed.
func siteStatus(cluster *core.Cluster) func() []obshttp.SiteStatus {
	return func() []obshttp.SiteStatus {
		out := make([]obshttp.SiteStatus, 0, len(cluster.Sites()))
		for _, id := range cluster.Sites() {
			s := cluster.Site(id)
			out = append(out, obshttp.SiteStatus{
				Site:        int(id),
				Up:          s.Up(),
				Operational: s.Operational(),
				Session:     uint64(s.DM.Session()),
			})
		}
		return out
	}
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
