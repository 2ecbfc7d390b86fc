package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/core"
	"siterecovery/internal/history"
	"siterecovery/internal/load"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

// TestMessageLossRobustness runs a lossy network: transactions retry, the
// janitor cleans up orphaned lock state from lost replies, and the final
// history is still one-serializable with converged copies.
func TestMessageLossRobustness(t *testing.T) {
	cfg := core.Config{
		Sites:           3,
		Placement:       workload.FullPlacement(8, 3),
		Seed:            99,
		MaxAttempts:     30,
		JanitorInterval: 20 * time.Millisecond,
		JanitorStaleAge: 100 * time.Millisecond,
	}
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Network().SetLossRate(0.02) // before Start: every message is at risk
	c.Start()
	t.Cleanup(c.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	targets, _ := load.ClusterTargets(c)
	res, err := load.Run(ctx, load.Config{
		Targets:     targets,
		Txns:        150,
		Concurrency: 3,
		Seed:        99,
		Generator:   workload.GeneratorConfig{Items: c.Catalog().Items(), OpsPerTxn: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed under 2% loss")
	}

	// Give janitors time to resolve any stranded state, then verify.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if div := c.CopiesConverged(); len(div) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("copies never converged: %v", c.CopiesConverged())
		}
		time.Sleep(20 * time.Millisecond)
	}
	mustCertifyF(t, c)
}

// TestWoundWaitCluster runs contended read-modify-write traffic under the
// wound-wait deadlock policy.
func TestWoundWaitCluster(t *testing.T) {
	cfg := core.Config{
		Sites:      3,
		Placement:  workload.FullPlacement(2, 3), // high contention
		LockPolicy: lockmgr.PolicyWoundWait,
		Seed:       5,
	}
	c := newFaultCluster(t, cfg)
	ctx := context.Background()

	targets, _ := load.ClusterTargets(c)
	res, err := load.Run(ctx, load.Config{
		Targets:     targets,
		Txns:        100,
		Concurrency: 4,
		Seed:        5,
		Generator:   workload.GeneratorConfig{Items: c.Catalog().Items(), OpsPerTxn: 2, ReadFraction: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed under wound-wait")
	}
	mustCertifyF(t, c)
	if div := c.CopiesConverged(); len(div) != 0 {
		t.Fatalf("divergent: %v", div)
	}
}

// TestWoundIsCountedOnTheHub: an older writer whose flush meets a younger
// reader's share lock wounds the reader and waits for it, and the site's hub
// shows both the wound and the wait.
func TestWoundIsCountedOnTheHub(t *testing.T) {
	hub := obs.NewHub(obs.Options{})
	c := newFaultCluster(t, core.Config{
		Sites:      3,
		Placement:  workload.FullPlacement(1, 3),
		LockPolicy: lockmgr.PolicyWoundWait,
		Obs:        hub,
	})
	item := c.Catalog().Items()[0]
	sum := func(name string) (n int64) {
		for _, s := range c.Sites() {
			n += hub.Value(s, "lock", name)
		}
		return n
	}
	ctx := context.Background()
	var beganOnce, readOnce sync.Once
	began, read := make(chan struct{}), make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		writer <- c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			beganOnce.Do(func() { close(began) }) // older: it began first
			<-read
			return tx.Write(ctx, item, 1)
		})
	}()
	<-began
	err := c.Exec(ctx, 2, func(ctx context.Context, tx *txn.Tx) error {
		if _, err := tx.Read(ctx, item); err != nil {
			return err
		}
		readOnce.Do(func() { close(read) })
		for deadline := time.Now().Add(10 * time.Second); sum("wounds") == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return errors.New("the older writer never wounded the reader")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if wounds, waits := sum("wounds"), sum("wait_us"); wounds < 1 || waits < 1 {
		t.Fatalf("hub shows %d wounds and %d lock waits, want at least 1 of each", wounds, waits)
	}
}

// TestCrashDuringCopierRefresh crashes the recovering site again while its
// copiers are still refreshing; the second recovery must finish the job.
func TestCrashDuringCopierRefresh(t *testing.T) {
	cfg := faultConfig(5)
	cfg.Identify = recovery.IdentifyMarkAll
	cfg.CopierMode = recovery.CopierOnDemand // keeps copies stale until read
	c := newFaultCluster(t, cfg)
	ctx := context.Background()

	c.Crash(2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, "a", 5)
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
	}

	if _, err := c.Recover(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Crash again mid-recovery (stale copies still marked).
	if len(c.Site(2).Store.UnreadableItems()) == 0 {
		t.Fatal("setup: expected stale copies")
	}
	c.Crash(2)
	if _, err := c.Recover(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCurrent(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := readF(t, c, 2, "a"); got != 5 {
		t.Fatalf("a = %d, want 5", got)
	}
	mustCertifyF(t, c)
}

// TestCrashDuringRecoveryClaim crashes the recovering site again from
// inside its own type-1 control transaction — between the participants'
// votes and the decision, the §3.4 procedure's most fragile instant. The
// torn claim must leave the site non-operational but restartable: after the
// janitors resolve the stranded prepared state, a second recovery completes
// under a fresh session and the history stays certifiable.
func TestCrashDuringRecoveryClaim(t *testing.T) {
	var (
		c     *core.Cluster
		armed atomic.Bool
	)
	cfg := faultConfig(3)
	cfg.JanitorInterval = 20 * time.Millisecond
	cfg.JanitorStaleAge = 50 * time.Millisecond
	cfg.Hooks = core.Hooks{OnPrepared: func(site proto.SiteID, id proto.TxnID) {
		if site == 2 && armed.CompareAndSwap(true, false) {
			c.Crash(2)
		}
	}}
	c = newFaultCluster(t, cfg)
	ctx := context.Background()

	// Seed a value so the retried data recovery has work to do.
	if err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, "a", 7)
	}); err != nil {
		t.Fatal(err)
	}

	c.Crash(2)
	armed.Store(true)
	if _, err := c.Recover(ctx, 2); err == nil {
		t.Fatal("recovery must fail when the site crashes mid-claim")
	}
	if c.Site(2).Operational() {
		t.Fatal("half-recovered site must not be operational")
	}

	// Retry until the janitors have presumed-aborted the torn type-1 and
	// the locks on the session copies drain.
	var report recovery.Report
	deadline := time.Now().Add(15 * time.Second)
	for {
		var err error
		report, err = c.Recover(ctx, 2)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second recovery never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if report.Session == core.InitialSession {
		t.Fatalf("recovered under stale session %d", report.Session)
	}
	if err := c.WaitCurrent(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := readF(t, c, 2, "a"); got != 7 {
		t.Fatalf("a = %d at recovered site, want 7", got)
	}
	mustCertifyF(t, c)
	if div := c.CopiesConverged(); len(div) != 0 {
		t.Fatalf("divergent after recovery: %v", div)
	}
}

// TestExecValidation covers the public API's error paths.
func TestExecValidation(t *testing.T) {
	c := newFaultCluster(t, faultConfig(3))
	ctx := context.Background()
	if err := c.Exec(ctx, 99, func(context.Context, *txn.Tx) error { return nil }); err == nil {
		t.Fatal("Exec with unknown site must fail")
	}
	if _, err := c.Recover(ctx, 99); err == nil {
		t.Fatal("Recover with unknown site must fail")
	}
	if _, err := c.Recover(ctx, 1); err == nil {
		t.Fatal("Recover of an up site must fail")
	}
	if err := c.WaitCurrent(ctx, 99); err == nil {
		t.Fatal("WaitCurrent with unknown site must fail")
	}
	c.Crash(99) // no-op, must not panic
	c.Crash(2)
	c.Crash(2) // double crash is a no-op
	if c.Site(2).Up() {
		t.Fatal("site 2 should be down")
	}
	ups := c.UpSites()
	if len(ups) != 2 {
		t.Fatalf("UpSites = %v", ups)
	}
}

// TestTransactionsAtRecoveringSiteRejected pins down the state machine: a
// site that is up-but-recovering rejects user transactions until the
// session number loads.
func TestTransactionsAtRecoveringSiteRejected(t *testing.T) {
	c := newFaultCluster(t, faultConfig(3))
	ctx := context.Background()

	c.Crash(3)
	// Reattach by hand without running recovery.
	c.Site(3).DM.Restart()
	c.Network().SetDown(3, false)

	err := c.Site(3).TM.Run(ctx, func(ctx context.Context, tx *txn.Tx) error {
		_, err := tx.Read(ctx, "a")
		return err
	})
	if err == nil {
		t.Fatal("user transaction at a recovering site must fail")
	}
}

// TestConfigValidation exercises New's validation.
func TestConfigValidation(t *testing.T) {
	if _, err := core.New(core.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := core.New(core.Config{Sites: 3}); err == nil {
		t.Fatal("missing placement accepted")
	}
	if _, err := core.New(core.Config{Sites: 2, Placement: map[proto.Item][]proto.SiteID{"x": {9}}}); err == nil {
		t.Fatal("bad placement accepted")
	}
}

// --- helpers (external test package: exported API only) ---

func faultConfig(sites int) core.Config {
	placement := map[proto.Item][]proto.SiteID{}
	items := []proto.Item{"a", "b", "c", "d", "e", "f"}
	for i, item := range items {
		var replicas []proto.SiteID
		for r := 0; r < 3 && r < sites; r++ {
			replicas = append(replicas, proto.SiteID((i+r)%sites+1))
		}
		placement[item] = replicas
	}
	return core.Config{Sites: sites, Placement: placement}
}

func newFaultCluster(t *testing.T, cfg core.Config) *core.Cluster {
	t.Helper()
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func readF(t *testing.T, c *core.Cluster, site proto.SiteID, item proto.Item) proto.Value {
	t.Helper()
	var got proto.Value
	err := c.Exec(context.Background(), site, func(ctx context.Context, tx *txn.Tx) error {
		v, err := tx.Read(ctx, item)
		got = v
		return err
	})
	if err != nil {
		t.Fatalf("read %s at %v: %v", item, site, err)
	}
	return got
}

func mustCertifyF(t *testing.T, c *core.Cluster) {
	t.Helper()
	suite := []chaos.Invariant{chaos.OneSR(), chaos.ConflictAcyclic()}
	for _, f := range chaos.Check(c, chaos.Info{}, suite) {
		t.Fatal(f.String())
	}
}

// TestPartitionSplitBrainIsOutOfScope demonstrates why the paper restricts
// its failure model to fail-stop site crashes (§6 defers partitions to
// future work): under a network partition, each side's failure detector —
// which cannot distinguish "partitioned" from "crashed" — claims the other
// side nominally down, both sides keep accepting writes to the same logical
// item, and the database diverges into a history no copier schedule can
// repair.
func TestPartitionSplitBrainIsOutOfScope(t *testing.T) {
	cfg := core.Config{
		Sites: 2,
		Placement: map[proto.Item][]proto.SiteID{
			"x": {1, 2},
		},
		DetectorDebounce: time.Millisecond,
	}
	c := newFaultCluster(t, cfg)
	ctx := context.Background()

	c.Network().Partition([]proto.SiteID{1}, []proto.SiteID{2})

	// Each side eventually excludes the other and commits its own write.
	for _, site := range []proto.SiteID{1, 2} {
		deadline := time.Now().Add(15 * time.Second)
		for {
			err := c.Exec(ctx, site, func(ctx context.Context, tx *txn.Tx) error {
				return tx.Write(ctx, "x", proto.Value(site)*111)
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("site %v never committed in its partition: %v", site, err)
			}
		}
	}

	c.Network().Heal()

	// Both writes committed, to different copies of the same item: the
	// copies disagree and the history has no one-copy serial equivalent.
	v1, _, _ := c.Site(1).Store.Committed("x")
	v2, _, _ := c.Site(2).Store.Committed("x")
	if v1 == v2 {
		t.Fatalf("expected divergence, both copies = %d", v1)
	}
	res, err := c.History().OneSRBruteForce(history.DomainDB, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.OneSR {
		t.Fatal("split-brain history certified 1-SR; it must not be")
	}
}
