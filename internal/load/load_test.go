package load

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

func testItems(n int) []proto.Item {
	items := make([]proto.Item, 0, n)
	for i := range n {
		items = append(items, workload.ItemName(i))
	}
	return items
}

func newTestCluster(t *testing.T) *core.Cluster {
	t.Helper()
	cl, err := core.New(core.Config{
		Sites:     3,
		Placement: workload.UniformPlacement(16, 3, 3, 1),
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	cl.Start()
	t.Cleanup(cl.Stop)
	return cl
}

// TestDeterministicAtConcurrencyOne is the acceptance check: two netsim
// runs with the same seed at Concurrency 1 produce identical commit/abort
// counts and an identical generated-transaction digest.
func TestDeterministicAtConcurrencyOne(t *testing.T) {
	run := func(seed int64) Result {
		cl := newTestCluster(t)
		targets, _ := ClusterTargets(cl)
		res, err := Run(context.Background(), Config{
			Targets: targets,
			Generator: workload.GeneratorConfig{
				Items: testItems(16),
				Dist:  workload.Zipf,
			},
			Txns:        40,
			Concurrency: 1,
			Seed:        seed,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.Committed != b.Committed || a.Failed != b.Failed {
		t.Fatalf("same seed diverged: %d/%d committed, %d/%d failed",
			a.Committed, b.Committed, a.Failed, b.Failed)
	}
	if a.SpecDigest != b.SpecDigest {
		t.Fatalf("same seed, different workload digest: %s vs %s", a.SpecDigest, b.SpecDigest)
	}
	if a.Arrivals != 40 || a.Committed+a.Failed != a.Arrivals {
		t.Fatalf("arrivals %d, committed %d, failed %d: counts do not add up",
			a.Arrivals, a.Committed, a.Failed)
	}
	if other := run(8); other.SpecDigest == a.SpecDigest {
		t.Fatalf("different seeds produced the same digest %s", a.SpecDigest)
	}

	// The deterministic profile, `srload -cluster netsim -txns 150
	// -concurrency 1 -seed 1`, pins two facts no latency gate can: the
	// generated workload has not drifted (spec digest), and 150 commits cost
	// 568 wire messages, 3.79 per commit — the one-batch-per-site commit
	// path stays won only while a count that drifts back up fails here.
	cl, err := core.New(core.Config{
		Sites:     3,
		Placement: workload.UniformPlacement(48, 3, 3, 1),
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	cl.Start()
	defer cl.Stop()
	targets, _ := ClusterTargets(cl)
	res, err := Run(context.Background(), Config{
		Targets: targets,
		Generator: workload.GeneratorConfig{
			Items:        testItems(48),
			Dist:         workload.Zipf,
			ReadFraction: 0.5,
			OpsPerTxn:    4,
		},
		Txns:        150,
		Concurrency: 1,
		Timeout:     30 * time.Second,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wire uint64
	for _, stat := range cl.Network().Stats() {
		wire += stat.Sent
	}
	if res.Committed != 150 || wire != 568 || res.SpecDigest != "295e20b7318b0b3a" {
		t.Fatalf("deterministic profile: %d committed, %d wire messages, digest %s; want 150, 568, 295e20b7318b0b3a",
			res.Committed, wire, res.SpecDigest)
	}
}

// TestUnpacedLatencyIsServiceTime: unpaced, an arrival is a client coming
// free, so eight clients on a low-contention cluster see about the latency
// one client sees — not their position in a queue of pre-stamped arrivals,
// which read ~1500x higher — and the concurrent history still certifies.
func TestUnpacedLatencyIsServiceTime(t *testing.T) {
	run := func(concurrency int) Result {
		cl, err := core.New(core.Config{
			Sites:     3,
			Placement: workload.UniformPlacement(1000, 3, 3, 1),
		})
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		cl.Start()
		defer cl.Stop()
		targets, _ := ClusterTargets(cl)
		res, err := Run(context.Background(), Config{
			Targets:     targets,
			Generator:   workload.GeneratorConfig{Items: testItems(1000), OpsPerTxn: 2},
			Txns:        1000,
			Concurrency: concurrency,
			Seed:        3,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Committed == 0 || res.Latency.Count() != res.Committed {
			t.Fatalf("concurrency %d: %d latency samples for %d commits", concurrency, res.Latency.Count(), res.Committed)
		}
		if ok, cycle := cl.CertifyOneSR(); !ok {
			t.Fatalf("concurrency %d: run not 1-SR: %v", concurrency, cycle)
		}
		return res
	}
	one, eight := run(1).Latency.Quantile(0.5), run(8).Latency.Quantile(0.5)
	if eight > 10*one {
		t.Fatalf("p50 at concurrency 8 = %v, over 10x the %v at concurrency 1: latency counts queueing", eight, one)
	}
}

// TestUnpacedGoroutinesBounded: the closed loop takes its slot before it
// spawns, so the executors never see more goroutines than clients.
func TestUnpacedGoroutinesBounded(t *testing.T) {
	const concurrency = 8
	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	exec := Executor(func(context.Context, Txn) error {
		n := int64(runtime.NumGoroutine())
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if _, err := Run(context.Background(), Config{
		Targets:     []Executor{exec},
		Generator:   workload.GeneratorConfig{Items: testItems(4)},
		Txns:        400,
		Concurrency: concurrency,
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The slack covers finished clients that have released their slot but
	// not yet exited.
	if limit := int64(baseline + concurrency + 8); peak.Load() > limit {
		t.Fatalf("peak %d goroutines, want <= %d: one per arrival, not one per client", peak.Load(), limit)
	}
}

// TestContextBoundedRun: with no Txns the run lasts as long as its context,
// and transactions the deadline cuts off are not failures.
func TestContextBoundedRun(t *testing.T) {
	if _, err := Run(context.Background(), Config{
		Targets:   []Executor{func(context.Context, Txn) error { return nil }},
		Generator: workload.GeneratorConfig{Items: testItems(4)},
	}); err == nil {
		t.Fatal("unbounded Txns on a context that never ends accepted")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	blocked := Executor(func(ctx context.Context, _ Txn) error {
		<-ctx.Done()
		return ctx.Err()
	})
	res, err := Run(ctx, Config{
		Targets:     []Executor{blocked},
		Generator:   workload.GeneratorConfig{Items: testItems(4)},
		Concurrency: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Arrivals != 4 || res.Committed != 0 || res.Failed != 0 {
		t.Fatalf("arrivals %d committed %d failed %d, want 4 cut-off arrivals and nothing else",
			res.Arrivals, res.Committed, res.Failed)
	}
	if res.Elapsed < 100*time.Millisecond || res.Elapsed > 5*time.Second {
		t.Fatalf("run took %v, want about its 100ms deadline", res.Elapsed)
	}
}

// TestOpenLoopPacing checks the Poisson arrival process roughly hits the
// target rate: at 2000 QPS, 50 arrivals should take about 25ms of pacing,
// and certainly finish well under the no-pacing-at-all bound.
func TestOpenLoopPacing(t *testing.T) {
	var n atomic.Int64
	noop := Executor(func(ctx context.Context, txn Txn) error {
		n.Add(1)
		return nil
	})
	res, err := Run(context.Background(), Config{
		Targets:   []Executor{noop},
		Generator: workload.GeneratorConfig{Items: testItems(4)},
		TargetQPS: 2000,
		Txns:      50,
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := n.Load(); got != 50 {
		t.Fatalf("executor saw %d arrivals, want 50", got)
	}
	if res.Elapsed < 5*time.Millisecond {
		t.Fatalf("50 arrivals at 2000 QPS finished in %v: pacing not applied", res.Elapsed)
	}
	if res.Elapsed > 5*time.Second {
		t.Fatalf("pacing took %v, far over the expected ~25ms", res.Elapsed)
	}
}

type fakeController struct {
	crashed   atomic.Int64
	recovered atomic.Int64
}

func (f *fakeController) Crash(proto.SiteID) { f.crashed.Add(1) }
func (f *fakeController) Recover(context.Context, proto.SiteID) error {
	f.recovered.Add(1)
	return nil
}

// TestFaultWindowAttribution drives a stub executor that fails exactly
// while the scheduled fault is outstanding and checks the window counters
// capture those arrivals.
func TestFaultWindowAttribution(t *testing.T) {
	ctl := &fakeController{}
	down := atomic.Bool{}
	exec := Executor(func(ctx context.Context, txn Txn) error {
		if down.Load() {
			return errors.New("site down")
		}
		return nil
	})
	// Mirror the controller actions into the stub executor's availability.
	mirror := controllerFunc{
		crash:   func(s proto.SiteID) { ctl.Crash(s); down.Store(true) },
		recover: func(ctx context.Context, s proto.SiteID) error { down.Store(false); return ctl.Recover(ctx, s) },
	}
	res, err := Run(context.Background(), Config{
		Targets:     []Executor{exec},
		Generator:   workload.GeneratorConfig{Items: testItems(4)},
		Txns:        30,
		Concurrency: 1,
		Seed:        5,
		Faults: []Fault{
			{AfterArrival: 10, Kind: FaultCrash, Site: 2},
			{AfterArrival: 20, Kind: FaultRecover, Site: 2},
		},
		Controller: mirror,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ctl.crashed.Load() != 1 || ctl.recovered.Load() != 1 {
		t.Fatalf("controller saw %d crashes, %d recoveries; want 1 and 1",
			ctl.crashed.Load(), ctl.recovered.Load())
	}
	// Arrivals 10..19 happen inside the window; all of them fail.
	if res.FaultWindow.Arrivals != 10 || res.FaultWindow.Failed != 10 || res.FaultWindow.Committed != 0 {
		t.Fatalf("fault window = %+v, want 10 arrivals all failed", res.FaultWindow)
	}
	if res.Committed != 20 || res.Failed != 10 {
		t.Fatalf("committed %d failed %d, want 20 and 10", res.Committed, res.Failed)
	}
}

type controllerFunc struct {
	crash   func(proto.SiteID)
	recover func(context.Context, proto.SiteID) error
}

func (c controllerFunc) Crash(s proto.SiteID) { c.crash(s) }
func (c controllerFunc) Recover(ctx context.Context, s proto.SiteID) error {
	return c.recover(ctx, s)
}

// TestCrashRecoverUnderNetsimLoad runs the real mid-run crash/recover
// phase against a netsim cluster: a replica crashes under load, recovers,
// and the run still terminates with every arrival settled.
func TestCrashRecoverUnderNetsimLoad(t *testing.T) {
	cl := newTestCluster(t)
	// Coordinate only at sites 1 and 3 so the crashed site 2 never has to
	// accept new transactions while down.
	targets, ctl := ClusterTargets(cl, 1, 3)
	res, err := Run(context.Background(), Config{
		Targets:     targets,
		Generator:   workload.GeneratorConfig{Items: testItems(16), Dist: workload.Zipf},
		Txns:        60,
		Concurrency: 4,
		Timeout:     10 * time.Second,
		Seed:        11,
		Faults: []Fault{
			{AfterArrival: 20, Kind: FaultCrash, Site: 2},
			{AfterArrival: 40, Kind: FaultRecover, Site: 2},
		},
		Controller: ctl,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed+res.Failed != res.Arrivals {
		t.Fatalf("arrivals %d != committed %d + failed %d", res.Arrivals, res.Committed, res.Failed)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed under crash/recover load")
	}
	if res.FaultWindow.Arrivals == 0 {
		t.Fatal("fault window saw no arrivals despite a 20-arrival crash phase")
	}
}

// TestReportDerivedFields checks the JSON column derivations.
func TestReportDerivedFields(t *testing.T) {
	res := Result{Arrivals: 10, Committed: 8, Failed: 2, Elapsed: 2 * time.Second}
	rep := res.Report("netsim", 96)
	if rep.ThroughputTPS != 4 {
		t.Fatalf("throughput = %v, want 4", rep.ThroughputTPS)
	}
	if rep.MsgsPerCommit != 12 {
		t.Fatalf("msgs/commit = %v, want 12", rep.MsgsPerCommit)
	}
	if rep.FaultWindow != nil {
		t.Fatalf("fault window reported without faults: %+v", rep.FaultWindow)
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := Run(context.Background(), Config{})
	if err == nil {
		t.Fatal("empty config accepted")
	}
	_, err = Run(context.Background(), Config{
		Targets:   []Executor{func(context.Context, Txn) error { return nil }},
		Generator: workload.GeneratorConfig{Items: testItems(2)},
		Txns:      1,
		Faults:    []Fault{{AfterArrival: 0, Kind: FaultCrash, Site: 1}},
	})
	if err == nil {
		t.Fatal("faults without controller accepted")
	}
}
