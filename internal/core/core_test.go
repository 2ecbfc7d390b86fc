package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/history"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/txn"
)

func testConfig(sites int) Config {
	placement := map[proto.Item][]proto.SiteID{}
	items := []proto.Item{"a", "b", "c", "d", "e", "f"}
	for i, item := range items {
		// 3-way replication, rotating.
		var replicas []proto.SiteID
		for r := 0; r < 3 && r < sites; r++ {
			replicas = append(replicas, proto.SiteID((i+r)%sites+1))
		}
		placement[item] = replicas
	}
	return Config{
		Sites:     sites,
		Placement: placement,
	}
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func write(t *testing.T, c *Cluster, site proto.SiteID, item proto.Item, v proto.Value) {
	t.Helper()
	err := c.Exec(context.Background(), site, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, item, v)
	})
	if err != nil {
		t.Fatalf("write %s=%d at %v: %v", item, v, site, err)
	}
}

func read(t *testing.T, c *Cluster, site proto.SiteID, item proto.Item) proto.Value {
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

func mustCertify(t *testing.T, c *Cluster) {
	t.Helper()
	if ok, cycle := c.CertifyOneSR(); !ok {
		t.Fatalf("history not 1-SR, cycle %v", cycle)
	}
	if !c.History().ConflictGraph(history.DomainAll).Acyclic() {
		t.Fatal("conflict graph over DB∪NS cyclic")
	}
}

func TestClusterBasics(t *testing.T) {
	c := newCluster(t, testConfig(5))
	write(t, c, 1, "a", 10)
	if got := read(t, c, 4, "a"); got != 10 {
		t.Fatalf("read a = %d", got)
	}
	mustCertify(t, c)
}

func TestCrashRecoverRoundTrip(t *testing.T) {
	cfg := testConfig(5)
	cfg.Identify = recovery.IdentifyMarkAll
	c := newCluster(t, cfg)
	ctx := context.Background()

	write(t, c, 1, "a", 1)
	c.Crash(2)

	// Updates committed while site 2 is down. The first write discovers
	// the crash; the detector then excludes site 2 so later writes skip it.
	for i := range 5 {
		item := []proto.Item{"a", "b", "c", "d", "e"}[i]
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
				return tx.Write(ctx, item, proto.Value(100+i))
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("write %s never succeeded: %v", item, err)
			}
		}
	}

	report, err := c.Recover(ctx, 2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if report.Session <= InitialSession {
		t.Fatalf("new session = %d, want > %d", report.Session, InitialSession)
	}
	if !c.Site(2).Operational() {
		t.Fatal("site 2 not operational after recovery")
	}

	if err := c.WaitCurrent(ctx, 2); err != nil {
		t.Fatalf("WaitCurrent: %v", err)
	}
	if div := c.CopiesConverged(); len(div) != 0 {
		t.Fatalf("divergent copies after recovery: %v", div)
	}

	// The recovered site serves current data.
	if got := read(t, c, 2, "a"); got != 100 {
		t.Fatalf("post-recovery read a = %d, want 100", got)
	}
	mustCertify(t, c)
}

func TestOperationalBeforeCurrent(t *testing.T) {
	// The paper's headline property: the site accepts user transactions as
	// soon as the type-1 commits, while copies are still stale-but-marked.
	cfg := testConfig(5)
	cfg.Identify = recovery.IdentifyMarkAll
	cfg.CopierMode = recovery.CopierOnDemand // nothing refreshes until read
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, "a", 7)
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never succeeded: %v", err)
		}
	}

	report, err := c.Recover(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Marked == 0 {
		t.Fatal("expected marked copies under MarkAll")
	}
	if remaining := c.Site(2).Store.UnreadableItems(); len(remaining) == 0 {
		t.Fatal("expected stale copies right after recovery (on-demand mode)")
	}

	// A write transaction at the just-recovered site works immediately.
	write(t, c, 2, "f", 55)

	// Reading a stale item triggers a demand copier; retries succeed.
	if got := read(t, c, 2, "a"); got != 7 {
		t.Fatalf("demand-copied read = %d, want 7", got)
	}
	mustCertify(t, c)
}

func TestFailLockIdentificationMarksOnlyUpdated(t *testing.T) {
	cfg := testConfig(5)
	cfg.Identify = recovery.IdentifyFailLock
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(2)
	// Update exactly one item that has a replica at site 2.
	var target proto.Item
	for _, item := range c.Catalog().Items() {
		if c.Catalog().HasReplica(item, 2) {
			target = item
			break
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, target, 99)
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never succeeded: %v", err)
		}
	}

	report, err := c.Recover(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Marked != 1 {
		t.Fatalf("fail-lock marked %d items, want exactly 1 (%q)", report.Marked, target)
	}
	if err := c.WaitCurrent(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := read(t, c, 2, target); got != 99 {
		t.Fatalf("recovered copy = %d, want 99", got)
	}
	mustCertify(t, c)
}

func TestDetectorExcludesCrashedSite(t *testing.T) {
	cfg := testConfig(3)
	cfg.Obs = obs.NewHub(obs.Options{})
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(3)

	// Writes eventually succeed once a type-2 control transaction commits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, "a", 5)
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never succeeded after crash: %v", err)
		}
	}

	// The nominal session number of site 3 is now 0 at the up sites.
	for _, site := range []proto.SiteID{1, 2} {
		v, _, err := c.Site(site).Store.Committed(proto.NSItem(3))
		if err != nil || v != proto.Value(proto.NoSession) {
			t.Fatalf("ns_%d[3] = (%v, %v), want 0", site, v, err)
		}
	}
	if c.Obs().Value(1, "session", "type2_committed")+c.Obs().Value(2, "session", "type2_committed") == 0 {
		t.Fatal("no type-2 control transaction committed")
	}
	mustCertify(t, c)
}

func TestSpoolerRecoveryIsCurrentImmediately(t *testing.T) {
	cfg := testConfig(5)
	cfg.Method = MethodSpooler
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(2)
	updated := 0
	for _, item := range c.Catalog().Items() {
		if !c.Catalog().HasReplica(item, 2) {
			continue
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
				return tx.Write(ctx, item, 123)
			})
			if err == nil {
				updated++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("write %s never succeeded: %v", item, err)
			}
		}
	}
	if updated == 0 {
		t.Fatal("test needs at least one update")
	}

	report, err := c.Recover(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed != updated {
		t.Fatalf("replayed %d updates, want %d", report.Replayed, updated)
	}
	// Spooler recovery finishes current: nothing marked, nothing stale.
	if remaining := c.Site(2).Store.UnreadableItems(); len(remaining) != 0 {
		t.Fatalf("stale copies after spooled recovery: %v", remaining)
	}
	if div := c.CopiesConverged(); len(div) != 0 {
		t.Fatalf("divergent copies: %v", div)
	}
	mustCertify(t, c)
}

func TestDoubleFailureStaggeredRecovery(t *testing.T) {
	cfg := testConfig(5)
	cfg.Identify = recovery.IdentifyMissingList
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(2)
	c.Crash(3)

	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			for _, item := range c.Catalog().Items() {
				if err := tx.Write(ctx, item, 77); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bulk write never succeeded: %v", err)
		}
	}

	// Recover site 2 while site 3 is still down.
	if _, err := c.Recover(ctx, 2); err != nil {
		t.Fatalf("recover 2: %v", err)
	}
	if err := c.WaitCurrent(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Then site 3.
	if _, err := c.Recover(ctx, 3); err != nil {
		t.Fatalf("recover 3: %v", err)
	}
	if err := c.WaitCurrent(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if div := c.CopiesConverged(); len(div) != 0 {
		t.Fatalf("divergent copies: %v", div)
	}
	for _, site := range []proto.SiteID{2, 3} {
		if got := read(t, c, site, "a"); got != 77 {
			t.Fatalf("site %v read a = %d, want 77", site, got)
		}
	}
	mustCertify(t, c)
}

func TestRecoveryImpossibleWithNoOperationalPeer(t *testing.T) {
	cfg := testConfig(3)
	cfg.MaxAttempts = 2
	c := newCluster(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	c.Crash(1)
	c.Crash(2)
	c.Crash(3)

	// No operational site anywhere: the type-1 cannot find a source.
	if _, err := c.Recover(ctx, 1); err == nil {
		t.Fatal("recovery succeeded with zero operational peers")
	}
	// site 1 is reattached but stuck recovering.
	if c.Site(1).Operational() {
		t.Fatal("site must stay non-operational")
	}
}

func TestCoordinatorCrashBeforeDecisionPresumesAbort(t *testing.T) {
	var c *Cluster
	crashed := make(chan struct{}, 1)
	cfg := testConfig(3)
	cfg.JanitorInterval = 20 * time.Millisecond
	cfg.JanitorStaleAge = 50 * time.Millisecond
	cfg.Obs = obs.NewHub(obs.Options{})
	cfg.Hooks.OnPrepared = func(site proto.SiteID, id proto.TxnID) {
		if site == 1 {
			select {
			case crashed <- struct{}{}:
				c.Crash(1) // die between votes and decision
			default:
			}
		}
	}
	c = newCluster(t, cfg)
	ctx := context.Background()

	err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, "a", 41)
	})
	if err == nil {
		t.Fatal("transaction must fail when its coordinator dies")
	}

	// Participants are left prepared; the janitor asks the (recovered)
	// coordinator, whose log knows nothing: presumed abort.
	if _, err := c.Recover(ctx, 1); err != nil {
		t.Fatalf("recover coordinator: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := readCommitted(t, c, 2, "a"); v == 0 {
			if c.Obs().Value(2, "dm", "forced.abort")+c.Obs().Value(3, "dm", "forced.abort") > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never presumed abort")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The value must not be installed anywhere.
	for _, site := range []proto.SiteID{2, 3} {
		if v := readCommitted(t, c, site, "a"); v != 0 {
			t.Fatalf("aborted value installed at %v: %d", site, v)
		}
	}
	mustCertify(t, c)
}

func TestCoordinatorCrashAfterDecisionCommitsEverywhere(t *testing.T) {
	// The coordinator's own copy is the one a site-local bookkeeping
	// strategy can miss: no peer fail-locked it, so only the coordinator's
	// log says it is behind.
	for _, identify := range []recovery.Identify{recovery.IdentifyMarkAll, recovery.IdentifyFailLock, recovery.IdentifyMissingList} {
		t.Run(identify.String(), func(t *testing.T) { coordinatorCrashAfterDecision(t, identify) })
	}
}

func coordinatorCrashAfterDecision(t *testing.T, identify recovery.Identify) {
	var c *Cluster
	crashed := make(chan struct{}, 1)
	cfg := testConfig(3)
	cfg.Identify = identify
	cfg.JanitorInterval = 20 * time.Millisecond
	cfg.JanitorStaleAge = 50 * time.Millisecond
	cfg.Hooks.OnDecided = func(site proto.SiteID, id proto.TxnID) {
		if site == 1 {
			select {
			case crashed <- struct{}{}:
				c.Crash(1) // die after logging the commit decision
			default:
			}
		}
	}
	c = newCluster(t, cfg)
	ctx := context.Background()

	_ = c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, "a", 42)
	})

	// Coordinator recovers; its log has the commit record, so janitors at
	// the participants learn the outcome and force-commit.
	if _, err := c.Recover(ctx, 1); err != nil {
		t.Fatalf("recover coordinator: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for _, site := range []proto.SiteID{2, 3} {
			if readCommitted(t, c, site, "a") != 42 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decided commit never applied at participants (site2=%d site3=%d)",
				readCommitted(t, c, 2, "a"), readCommitted(t, c, 3, "a"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.WaitCurrent(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// The coordinator's local install died with it: recovery must have
	// redone it from its own prepare record, or left the copy unreadable
	// until a copier refreshed it.
	if got := readCommitted(t, c, 1, "a"); got != 42 {
		t.Errorf("site 1 holds a = %d after recovering, want 42 (readable: %v)", got, !c.Site(1).Store.IsUnreadable("a"))
	}
	mustCertify(t, c)
}

// readCommitted reads the committed value directly from a site's store.
func readCommitted(t *testing.T, c *Cluster, site proto.SiteID, item proto.Item) proto.Value {
	t.Helper()
	v, _, err := c.Site(site).Store.Committed(item)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestNaiveAnomalyAndROWAAPrevention reproduces the paper's §1 example: the
// naive write-all-available strategy commits a non-1-SR history that no
// copier schedule can repair, while the session-vector protocol prevents it
// under the same interleaving.
func TestNaiveAnomalyAndROWAAPrevention(t *testing.T) {
	scenario := func(t *testing.T, profile replication.Profile) *Cluster {
		t.Helper()
		cfg := Config{
			Sites: 4,
			Placement: map[proto.Item][]proto.SiteID{
				"x": {1, 2},
				"y": {1, 2},
			},
			Profile: profile,
		}
		c := newCluster(t, cfg)
		ctx := context.Background()

		readsDone := make(chan struct{}, 2)
		crashDone := make(chan struct{})

		// Ta at site 3 reads x (from site 1, the lowest candidate), then
		// waits for the crash, then writes y. Tb at site 4 does the
		// mirror image. First attempts interleave exactly as in §1;
		// retries (under ROWAA) run normally.
		attempts := make(map[proto.SiteID]int)
		var mu sync.Mutex
		body := func(self proto.SiteID, readItem, writeItem proto.Item) func(context.Context, *txn.Tx) error {
			return func(ctx context.Context, tx *txn.Tx) error {
				mu.Lock()
				attempts[self]++
				first := attempts[self] == 1
				mu.Unlock()
				if _, err := tx.Read(ctx, readItem); err != nil {
					return err
				}
				if first {
					readsDone <- struct{}{}
					<-crashDone
				}
				return tx.Write(ctx, writeItem, proto.Value(self)*100)
			}
		}

		errs := make(chan error, 2)
		go func() { errs <- c.Exec(ctx, 3, body(3, "x", "y")) }()
		go func() { errs <- c.Exec(ctx, 4, body(4, "y", "x")) }()

		<-readsDone
		<-readsDone
		c.Crash(1)
		close(crashDone)

		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("%s transaction failed: %v", profile.Name, err)
			}
		}
		return c
	}

	t.Run("naive commits a non-1SR history", func(t *testing.T) {
		c := scenario(t, replication.Naive)
		ok, _ := c.CertifyOneSR()
		if ok {
			t.Fatal("1-STG certified the naive anomaly")
		}
		res, err := c.History().OneSRBruteForce(history.DomainDB, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.OneSR {
			t.Fatalf("brute force found witness %v for the anomaly", res.Witness)
		}
	})

	t.Run("rowaa stays 1SR under the same interleaving", func(t *testing.T) {
		c := scenario(t, replication.ROWAA)
		ok, cycle := c.CertifyOneSR()
		if !ok {
			t.Fatalf("ROWAA produced a non-1-SR history: %v", cycle)
		}
		res, err := c.History().OneSRBruteForce(history.DomainDB, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OneSR {
			t.Fatal("brute force rejected the ROWAA history")
		}
	})
}
