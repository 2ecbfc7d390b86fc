package session_test

import (
	"context"
	"testing"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
)

func newCluster(t *testing.T, sites int) *core.Cluster {
	t.Helper()
	placement := map[proto.Item][]proto.SiteID{}
	for _, item := range []proto.Item{"x", "y"} {
		var replicas []proto.SiteID
		for s := 1; s <= sites; s++ {
			replicas = append(replicas, proto.SiteID(s))
		}
		placement[item] = replicas
	}
	c, err := core.New(core.Config{
		Sites:             sites,
		Placement:         placement,
		DisableBackground: true, // claims are driven explicitly in these tests
		Obs:               obs.NewHub(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func nsValue(t *testing.T, c *core.Cluster, at, about proto.SiteID) proto.Session {
	t.Helper()
	v, _, err := c.Site(at).Store.Committed(proto.NSItem(about))
	if err != nil {
		t.Fatal(err)
	}
	return proto.Session(v)
}

func TestClaimDownWritesZeroEverywhere(t *testing.T) {
	c := newCluster(t, 3)
	c.Crash(3)

	err := c.Site(1).Session.ClaimDown(context.Background(), 3, core.InitialSession)
	if err != nil {
		t.Fatalf("ClaimDown: %v", err)
	}
	for _, at := range []proto.SiteID{1, 2} {
		if got := nsValue(t, c, at, 3); got != proto.NoSession {
			t.Errorf("ns_%d[3] = %d, want 0", at, got)
		}
	}
	if got := c.Obs().Value(1, "session", "type2_committed"); got != 1 {
		t.Errorf("session/type2_committed = %d, want 1", got)
	}
}

// TestClaimDownClaimsTheUnionOnRetry: a type-2 claim whose write finds
// another nominally-up site crashed claims the union on its next attempt
// (§3.4), under the session number its first attempt read for that site.
func TestClaimDownClaimsTheUnionOnRetry(t *testing.T) {
	c := newCluster(t, 4)
	c.Crash(3)
	c.Crash(4)

	if err := c.Site(1).Session.ClaimDown(context.Background(), 3, core.InitialSession); err != nil {
		t.Fatalf("ClaimDown: %v", err)
	}
	for _, at := range []proto.SiteID{1, 2} {
		for _, about := range []proto.SiteID{3, 4} {
			if got := nsValue(t, c, at, about); got != proto.NoSession {
				t.Errorf("ns_%d[%d] = %d, want 0", at, about, got)
			}
		}
	}
	if got := c.Obs().Value(1, "session", "type2_committed"); got != 1 {
		t.Errorf("session/type2_committed = %d, want 1", got)
	}
	// The first attempt wrote towards site 4 and aborted there.
	if got := c.Obs().Value(1, "txn", "abort.site-down"); got != 1 {
		t.Errorf("txn/abort.site-down = %d, want the one attempt that met site 4", got)
	}
}

func TestClaimDownStaleObservationSkips(t *testing.T) {
	c := newCluster(t, 3)
	c.Crash(3)

	// A claim carrying a wrong (stale) session number must not zero the
	// entry: the site it observed no longer exists in that incarnation.
	err := c.Site(1).Session.ClaimDown(context.Background(), 3, core.InitialSession+7)
	if err != nil {
		t.Fatalf("ClaimDown: %v", err)
	}
	if got := nsValue(t, c, 1, 3); got != core.InitialSession {
		t.Errorf("stale claim zeroed ns[3]: %d", got)
	}
	if got := c.Obs().Value(1, "session", "type2_skipped"); got != 1 {
		t.Errorf("session/type2_skipped = %d, want 1", got)
	}
}

func TestClaimDownCannotZombieRecoveredSite(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()

	// Site 3 crashes and fully recovers before anyone claims it down.
	c.Crash(3)
	report, err := c.Recover(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Session == core.InitialSession {
		t.Fatal("recovery must pick a fresh session number")
	}

	// A laggard claim based on the old incarnation arrives late: it must
	// not mark the recovered site down.
	if err := c.Site(1).Session.ClaimDown(ctx, 3, core.InitialSession); err != nil {
		t.Fatalf("laggard ClaimDown: %v", err)
	}
	if got := nsValue(t, c, 1, 3); got != report.Session {
		t.Errorf("recovered site zombied: ns[3] = %d, want %d", got, report.Session)
	}
}

func TestClaimUpRefreshesVectorAndPublishesSession(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()

	// While site 3 is down, site 2 also fails and is claimed down, so the
	// vector at the operational site has real content to propagate.
	c.Crash(3)
	c.Crash(2)
	if err := c.Site(1).Session.ClaimDown(ctx, 2, core.InitialSession); err != nil {
		t.Fatal(err)
	}
	if err := c.Site(1).Session.ClaimDown(ctx, 3, core.InitialSession); err != nil {
		t.Fatal(err)
	}

	// Site 3 recovers: the full procedure runs a type-1 claim.
	report, err := c.Recover(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Everyone nominally-up sees the new session for 3...
	for _, at := range []proto.SiteID{1, 3} {
		if got := nsValue(t, c, at, 3); got != report.Session {
			t.Errorf("ns_%d[3] = %d, want %d", at, got, report.Session)
		}
	}
	// ...and site 3's refreshed local vector knows site 2 is down.
	if got := nsValue(t, c, 3, 2); got != proto.NoSession {
		t.Errorf("refreshed ns_3[2] = %d, want 0", got)
	}
	if !c.Site(3).Operational() {
		t.Error("site 3 must be operational")
	}
}

func TestClaimUpSurvivesPeerCrashMidRecovery(t *testing.T) {
	// §3.4 step 4: if the type-1 aborts because another site crashed, the
	// recovering site excludes it with a type-2 and retries. We simulate
	// the worst alignment: the only other peers crash one after another,
	// leaving exactly one operational site.
	c := newCluster(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c.Crash(4)
	// Crash 3 too: recovery of 4 must cope with 3 being gone, detected
	// only when the type-1 tries to write to it (its nominal entry still
	// says "up").
	c.Crash(3)

	report, err := c.Recover(ctx, 4)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if c.Obs().Value(4, "session", "type1_failed") == 0 {
		t.Error("expected at least one failed type-1 attempt (site 3 still nominally up)")
	}
	if c.Obs().Value(4, "session", "type2_committed") == 0 {
		t.Error("expected the recovering site to claim the crashed peer down")
	}
	// The vector converged: 3 is down, 4 carries the new session.
	for _, at := range []proto.SiteID{1, 2, 4} {
		if got := nsValue(t, c, at, 3); got != proto.NoSession {
			t.Errorf("ns_%d[3] = %d, want 0", at, got)
		}
		if got := nsValue(t, c, at, 4); got != report.Session {
			t.Errorf("ns_%d[4] = %d, want %d", at, got, report.Session)
		}
	}

	// User transactions work at the recovered site.
	err = c.Exec(ctx, 4, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, "x", 5)
	})
	if err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

// TestClaimUpExcludesACrashedPeerOnFirstAbort: §3.4 step 4 at protocol
// speed. The type-1 attempt whose commit finds site 3 crashed is the last
// one; the type-2 claim excluding site 3 runs next, and the second type-1
// commits. One session number is drawn per attempt that got that far: two.
// (Before, the type-1 retried twelve times against the dead site and drew
// thirteen numbers.)
func TestClaimUpExcludesACrashedPeerOnFirstAbort(t *testing.T) {
	c := newCluster(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	before := c.Site(4).Log.Session()
	c.Crash(4)
	c.Crash(3)
	report, err := c.Recover(ctx, 4)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := c.Obs().Value(4, "txn", "abort.site-down"); got != 1 {
		t.Errorf("site-down aborts at the recovering site = %d, want 1", got)
	}
	if drawn := report.Session - before; drawn != 2 {
		t.Errorf("session numbers drawn = %d, want 2", drawn)
	}
}

func TestDetectorDrivesType2(t *testing.T) {
	placement := map[proto.Item][]proto.SiteID{"x": {1, 2, 3}}
	c, err := core.New(core.Config{
		Sites:            3,
		Placement:        placement,
		DetectorDebounce: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ctx := context.Background()

	c.Crash(2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, "x", 1)
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never recovered: %v", err)
		}
	}
	if got := nsValue(t, c, 1, 2); got != proto.NoSession {
		t.Fatalf("detector never excluded site 2: ns[2] = %d", got)
	}
}

func TestSessionNumbersUniquePerSiteHistory(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	seen := map[proto.Session]bool{core.InitialSession: true}
	for range 3 {
		c.Crash(3)
		report, err := c.Recover(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		if seen[report.Session] {
			t.Fatalf("session number %d reused", report.Session)
		}
		seen[report.Session] = true
	}
}

// TestClaimsFlushOneBatchPerSite pins what a claim costs on the wire at
// three sites: phase one is one batch per remote participant, as for a user
// transaction, then one posted commit each. A type-2 claim from site 1 is 2
// messages (batch and commit to site 2). Site 3's recovery is 8: one probe,
// three reads of the vector at the source, and a batch and a commit to each
// of the two peers. Neither sends a write or a prepare request.
func TestClaimsFlushOneBatchPerSite(t *testing.T) {
	c, err := core.New(core.Config{
		Sites:             3,
		Placement:         map[proto.Item][]proto.SiteID{"x": {1, 2, 3}},
		DisableBackground: true,
		CopierWorkers:     -1, // recovery stops at the claim
		Obs:               obs.NewHub(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ctx := context.Background()
	kinds := []string{"probe", "read", "write", "batch", "prepare", "commit", "abort"}
	sent := func(site proto.SiteID) map[string]int64 {
		m := map[string]int64{}
		for _, k := range kinds {
			m[k] = c.Obs().Value(site, "net", "sent."+k)
		}
		return m
	}
	check := func(claim string, site proto.SiteID, before map[string]int64, want map[string]int64) {
		t.Helper()
		after := sent(site)
		for _, k := range kinds {
			if got := after[k] - before[k]; got != want[k] {
				t.Errorf("%s sent %d %s messages, want %d", claim, got, k, want[k])
			}
		}
	}

	c.Crash(3)
	before := sent(1)
	if err := c.Site(1).Session.ClaimDown(ctx, 3, core.InitialSession); err != nil {
		t.Fatal(err)
	}
	check("type-2 claim", 1, before, map[string]int64{"batch": 1, "commit": 1})

	before = sent(3)
	if _, err := c.Recover(ctx, 3); err != nil {
		t.Fatal(err)
	}
	check("type-1 claim", 3, before, map[string]int64{"probe": 1, "read": 3, "batch": 2, "commit": 2})
}
