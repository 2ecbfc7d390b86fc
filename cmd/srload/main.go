// Command srload is the production load harness: open-loop Poisson
// arrivals at a target QPS, or unpaced -concurrency closed-loop clients for
// the throughput ceiling; Zipfian key skew and a configurable read/write
// mix, driven against the in-process netsim cluster and against a real
// multi-process srnode cluster over localhost TCP — with an optional mid-run
// crash/recover phase so availability under load is measured, not assumed.
//
// Usage:
//
//	srload                          # netsim + tcp columns, unpaced
//	srload -cluster netsim -qps 500 -txns 1000 -dist zipf
//	srload -cluster netsim -concurrency 1 -seed 7   # deterministic profile
//	srload -crash
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/load"
	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

// crashSite is the replica the -crash phase fail-stops; coordinators then
// round-robin over the surviving sites.
const crashSite = proto.SiteID(2)

type options struct {
	cluster     string
	txns        int
	qps         float64
	concurrency int
	items       int
	sites       int
	replicas    int
	readFrac    float64
	ops         int
	dist        workload.Dist
	seed        int64
	crash       bool
	srnodeBin   string
}

func main() {
	var o options
	var distName string
	flag.StringVar(&o.cluster, "cluster", "all", "which clusters to drive: netsim|tcp|all")
	flag.IntVar(&o.txns, "txns", 200, "total arrivals per run column")
	flag.Float64Var(&o.qps, "qps", 0, "target arrivals/sec (Poisson, open loop); 0 = unpaced: -concurrency closed-loop clients")
	flag.IntVar(&o.concurrency, "concurrency", 8, "max in-flight transactions (unpaced: the number of clients); 1 = deterministic inline execution")
	flag.IntVar(&o.items, "items", 48, "logical items")
	flag.IntVar(&o.sites, "sites", 3, "cluster sites")
	flag.IntVar(&o.replicas, "replicas", 3, "replication degree on netsim (TCP items are always fully replicated)")
	flag.Float64Var(&o.readFrac, "read-frac", 0.5, "probability an operation is a read")
	flag.IntVar(&o.ops, "ops", 4, "logical operations per transaction")
	flag.StringVar(&distName, "dist", "zipf", "item-access distribution: uniform|zipf|hotspot")
	flag.Int64Var(&o.seed, "seed", 1, "seed for arrivals and the workload mix")
	flag.BoolVar(&o.crash, "crash", false, fmt.Sprintf("crash site %d at txns/3 and recover it at 2*txns/3", crashSite))
	flag.StringVar(&o.srnodeBin, "srnode", "", "prebuilt srnode binary for the TCP cluster (default: go build ./cmd/srnode)")
	flag.Parse()

	var err error
	if o.dist, err = parseDist(distName); err != nil {
		fmt.Fprintln(os.Stderr, "srload:", err)
		os.Exit(2)
	}
	if o.crash && o.sites < 3 {
		fmt.Fprintln(os.Stderr, "srload: -crash needs at least 3 sites")
		os.Exit(2)
	}

	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "srload:", err)
		os.Exit(1)
	}
}

func realMain(o options) error {
	var results []load.Report
	ctx := context.Background()

	if o.cluster == "netsim" || o.cluster == "all" {
		rep, err := runNetsim(ctx, o, "netsim")
		if err != nil {
			return fmt.Errorf("netsim: %w", err)
		}
		results = append(results, rep)
	}
	if o.cluster == "tcp" || o.cluster == "all" {
		rep, err := runTCP(ctx, o, "tcp")
		if err != nil {
			return fmt.Errorf("tcp: %w", err)
		}
		results = append(results, rep)
	}
	if len(results) == 0 {
		return fmt.Errorf("unknown -cluster %q: want netsim|tcp|all", o.cluster)
	}
	printTable(results)
	return nil
}

// runNetsim drives one freshly built in-process cluster.
func runNetsim(ctx context.Context, o options, name string) (load.Report, error) {
	cl, err := core.New(core.Config{
		Sites:     o.sites,
		Placement: workload.UniformPlacement(o.items, o.replicas, o.sites, o.seed),
		Seed:      o.seed,
	})
	if err != nil {
		return load.Report{}, err
	}
	cl.Start()
	defer cl.Stop()

	coordinators := cl.Sites()
	if o.crash {
		coordinators = surviving(coordinators)
	}
	targets, ctl := load.ClusterTargets(cl, coordinators...)
	cfg := loadConfig(o, targets)
	cfg.Controller = ctl
	cfg.Faults = faultSchedule(o)

	res, err := load.Run(ctx, cfg)
	if err != nil {
		return load.Report{}, err
	}
	var wire uint64
	for _, stat := range cl.Network().Stats() {
		wire += stat.Sent
	}
	return res.Report(name, wire), nil
}

// loadConfig builds the shared run config for one column.
func loadConfig(o options, targets []load.Executor) load.Config {
	itemList := make([]proto.Item, 0, o.items)
	for i := range o.items {
		itemList = append(itemList, workload.ItemName(i))
	}
	return load.Config{
		Targets: targets,
		Generator: workload.GeneratorConfig{
			Items:        itemList,
			Dist:         o.dist,
			ReadFraction: o.readFrac,
			OpsPerTxn:    o.ops,
		},
		TargetQPS:   o.qps,
		Txns:        o.txns,
		Concurrency: o.concurrency,
		Timeout:     30 * time.Second,
		Seed:        o.seed,
	}
}

func faultSchedule(o options) []load.Fault {
	if !o.crash {
		return nil
	}
	return load.CrashRecoverCycles(crashSite, 1, o.txns)
}

// surviving drops the crash-phase victim from the coordinator rotation so
// arrivals never need the crashed site to coordinate.
func surviving(sites []proto.SiteID) []proto.SiteID {
	out := make([]proto.SiteID, 0, len(sites))
	for _, s := range sites {
		if s != crashSite {
			out = append(out, s)
		}
	}
	return out
}

func parseDist(s string) (workload.Dist, error) {
	switch s {
	case "uniform":
		return workload.Uniform, nil
	case "zipf":
		return workload.Zipf, nil
	case "hotspot":
		return workload.Hotspot, nil
	default:
		return 0, fmt.Errorf("unknown -dist %q: want uniform|zipf|hotspot", s)
	}
}

func printTable(results []load.Report) {
	fmt.Printf("%-16s %9s %9s %7s %12s %9s %9s %9s %11s\n",
		"run", "arrivals", "commit", "abort", "tput (txn/s)", "p50 (us)", "p95 (us)", "p99 (us)", "msgs/txn")
	for _, r := range results {
		msgs := "-"
		if r.MsgsPerCommit > 0 {
			msgs = fmt.Sprintf("%.1f", r.MsgsPerCommit)
		}
		fmt.Printf("%-16s %9d %9d %7d %12.1f %9d %9d %9d %11s\n",
			r.Name, r.Arrivals, r.Committed, r.Failed, r.ThroughputTPS,
			r.Latency.P50US, r.Latency.P95US, r.Latency.P99US, msgs)
		if r.FaultWindow != nil {
			fmt.Printf("%-16s   fault window: %d arrivals, %d committed, %d failed\n",
				"", r.FaultWindow.Arrivals, r.FaultWindow.Committed, r.FaultWindow.Failed)
		}
	}
}
