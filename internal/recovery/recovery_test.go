package recovery_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/replication"
	"siterecovery/internal/storage"
	"siterecovery/internal/storage/enginetest"
	"siterecovery/internal/txn"
)

func fullPlacement(items []proto.Item, sites int) map[proto.Item][]proto.SiteID {
	placement := make(map[proto.Item][]proto.SiteID, len(items))
	var all []proto.SiteID
	for s := 1; s <= sites; s++ {
		all = append(all, proto.SiteID(s))
	}
	for _, item := range items {
		placement[item] = all
	}
	return placement
}

// newCluster builds and starts a cluster, with a hub to read its counts from
// unless cfg brings one.
func newCluster(t *testing.T, cfg core.Config) *core.Cluster {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewHub(obs.Options{})
	}
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// writeRetry keeps writing until the detector has excluded crashed sites.
func writeRetry(t *testing.T, c *core.Cluster, site proto.SiteID, item proto.Item, v proto.Value) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Exec(context.Background(), site, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, item, v)
		})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write %s at %v never succeeded: %v", item, site, err)
		}
	}
}

func TestVersionDiffSkipsCurrentCopies(t *testing.T) {
	items := []proto.Item{"a", "b", "c", "d", "e", "f", "g", "h"}
	cfg := core.Config{
		Sites:     3,
		Placement: fullPlacement(items, 3),
		Identify:  recovery.IdentifyVersionDiff,
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(3)
	// Update only two of the eight items while site 3 is down.
	writeRetry(t, c, 1, "a", 10)
	writeRetry(t, c, 1, "b", 20)

	report, err := c.Recover(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Marked != len(items) {
		t.Fatalf("version-diff marks everything: marked %d, want %d", report.Marked, len(items))
	}
	if err := c.WaitCurrent(ctx, 3); err != nil {
		t.Fatal(err)
	}

	if got := c.Obs().Value(3, "copier", "data_copy"); got != 2 {
		t.Errorf("copier/data_copy = %d, want 2 (only updated items transfer)", got)
	}
	if got := c.Obs().Value(3, "copier", "version_skip"); got != int64(len(items)-2) {
		t.Errorf("copier/version_skip = %d, want %d", got, len(items)-2)
	}
}

func TestMarkAllCopiesEverything(t *testing.T) {
	items := []proto.Item{"a", "b", "c", "d"}
	cfg := core.Config{
		Sites:     3,
		Placement: fullPlacement(items, 3),
		Identify:  recovery.IdentifyMarkAll,
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(3)
	writeRetry(t, c, 1, "a", 10)

	if _, err := c.Recover(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCurrent(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.Obs().Value(3, "txn", "commit.copier"); got != int64(len(items)) {
		t.Errorf("txn/commit.copier = %d, want %d", got, len(items))
	}
}

func TestMissingListInheritance(t *testing.T) {
	items := []proto.Item{"a", "b", "c"}
	cfg := core.Config{
		Sites:     4,
		Placement: fullPlacement(items, 4),
		Identify:  recovery.IdentifyMissingList,
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	// Both 3 and 4 go down; updates accrue entries for both.
	c.Crash(3)
	c.Crash(4)
	writeRetry(t, c, 1, "a", 1)
	writeRetry(t, c, 2, "b", 2)

	// Site 3 recovers first and must inherit the entries about site 4.
	if _, err := c.Recover(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCurrent(ctx, 3); err != nil {
		t.Fatal(err)
	}
	got := c.Site(3).DM.MissedFor(4)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("inherited missing list for 4 = %v, want [a b]", got)
	}

	// Now every site but 3 crashes; 4 can still recover precisely because
	// 3 inherited the bookkeeping.
	c.Crash(1)
	c.Crash(2)
	report, err := c.Recover(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if report.Marked != 2 {
		t.Fatalf("site 4 marked %d items, want 2 (from inherited entries)", report.Marked)
	}
	if err := c.WaitCurrent(ctx, 4); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Site(4).Store.Committed("a")
	if err != nil || v != 1 {
		t.Fatalf("recovered a = (%d, %v), want 1", v, err)
	}
}

func TestTotallyFailedItemDetected(t *testing.T) {
	// Item "solo" lives only at sites 2 and 3. Both fail; 3 loses its
	// state, recovers, and the copier cannot find any readable copy while
	// 2 stays down: the item is totally failed.
	placement := map[proto.Item][]proto.SiteID{
		"solo":   {2, 3},
		"shared": {1, 2, 3},
	}
	cfg := core.Config{
		Sites:     3,
		Placement: placement,
		Identify:  recovery.IdentifyMarkAll,
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(2)
	writeRetry(t, c, 1, "shared", 5)
	// "solo" now has its only current copy at site 3... which crashes too.
	c.Crash(3)

	if _, err := c.Recover(ctx, 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Obs().Value(3, "copier", "total_failure") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("copier never reported the totally-failed item")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The copy stays unreadable rather than serving stale data.
	if !c.Site(3).Store.IsUnreadable("solo") {
		t.Fatal("totally-failed copy must stay unreadable")
	}
	// Once site 2 recovers, BOTH copies of "solo" are marked: copiers
	// cannot repair a totally failed item (each site sees only unreadable
	// sources). The resolution extension resurrects the highest version
	// once the full replica set is back.
	if _, err := c.Recover(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Site(2).Recovery.ResolveTotalFailure(ctx, "solo"); err != nil {
		t.Fatalf("ResolveTotalFailure: %v", err)
	}
	if err := c.WaitCurrent(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCurrent(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if div := c.CopiesConverged(); len(div) != 0 {
		t.Fatalf("divergent copies after resolution: %v", div)
	}
}

// TestFailedInDoubtRedoMarksTheCopy: site 3 votes yes on a write of a and
// crashes before the commit reaches it. At recovery the coordinator answers
// "committed", but redoing the write fails. Site 3 was up when a was
// written, so no peer's fail-locks list it: unless the in-doubt branch marks
// the copy, it stays stale and readable.
func TestFailedInDoubtRedoMarksTheCopy(t *testing.T) {
	var table *enginetest.FailingTable
	var c *core.Cluster
	cfg := core.Config{
		Sites:             3,
		Placement:         fullPlacement([]proto.Item{"a"}, 3),
		Identify:          recovery.IdentifyFailLock,
		CopierWorkers:     -1,
		DisableBackground: true,
		Storage: func(d storage.Deps) (storage.Engine, error) {
			var tb storage.Table = storage.NewMemTable(d.Numbers())
			if d.Site == 3 {
				table = &enginetest.FailingTable{Table: tb}
				tb = table
			}
			return storage.NewStore(d, tb)
		},
	}
	cfg.Hooks.OnPrepared = func(site proto.SiteID, _ proto.TxnID) {
		switch {
		case site == 1 && c.Site(3).Up():
			c.Crash(3) // voted, decision not yet sent
		case site == 3:
			table.Fail = false // the redo is over; let the type-1 claim install
		}
	}
	c = newCluster(t, cfg)
	ctx := context.Background()
	if err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, "a", 7)
	}); err != nil {
		t.Fatal(err)
	}

	table.Fail = true
	report, err := c.Recover(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	unresolved, committed := c.Obs().Value(3, "recovery", "in_doubt.unresolved"), c.Obs().Value(3, "recovery", "in_doubt.committed")
	if report.InDoubt != 1 || unresolved != 1 || committed != 0 {
		t.Fatalf("in doubt %d, in_doubt.unresolved %d, in_doubt.committed %d; want the one failed redo counted unresolved",
			report.InDoubt, unresolved, committed)
	}
	if !c.Site(3).Store.IsUnreadable("a") {
		t.Fatal("the copy whose redo failed is readable")
	}
	if n := c.Site(3).Recovery.DrainNow(ctx); n != 0 {
		t.Fatalf("DrainNow left %d unreadable", n)
	}
	if v, _, _ := c.Site(3).Store.Committed("a"); v != 7 {
		t.Fatalf("a at site 3 = %d after the copier, want 7", v)
	}
}

func TestBaselineRecoveryForQuorum(t *testing.T) {
	items := []proto.Item{"a"}
	cfg := core.Config{
		Sites:     3,
		Placement: fullPlacement(items, 3),
		Profile:   replication.Quorum,
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(3)
	writeRetry(t, c, 1, "a", 30)

	report, err := c.Recover(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Marked != 0 || report.Replayed != 0 {
		t.Fatalf("baseline recovery must not mark or replay: %+v", report)
	}
	// Quorum reads heal around the stale copy.
	var got proto.Value
	err = c.Exec(ctx, 3, func(ctx context.Context, tx *txn.Tx) error {
		v, err := tx.Read(ctx, "a")
		got = v
		return err
	})
	if err != nil || got != 30 {
		t.Fatalf("quorum read after recovery = (%d, %v), want 30", got, err)
	}
}

// TestJanitorStatsExposed: a write whose coordinator (site 2) never heard of
// it strands a lock at site 1; site 1's background janitor presumes abort,
// and the decision shows on the hub as dm/forced.abort.
func TestJanitorStatsExposed(t *testing.T) {
	items := []proto.Item{"a"}
	cfg := core.Config{
		Sites:           3,
		Placement:       fullPlacement(items, 3),
		JanitorInterval: 10 * time.Millisecond,
		JanitorStaleAge: 20 * time.Millisecond,
	}
	c := newCluster(t, cfg)
	orphan := proto.TxnMeta{ID: 1 << 40, Class: proto.ClassUser, Origin: 2}
	if _, err := c.Site(1).DM.Handle(context.Background(), 2, proto.WriteReq{
		Txn: orphan, Item: "a", Value: 1, Mode: proto.CheckSession, Expect: core.InitialSession,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Obs().Value(1, "dm", "forced.abort") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never presumed the orphan aborted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if held := c.Site(1).Locks.Held(orphan.ID); len(held) != 0 {
		t.Fatalf("orphan still holds %v", held)
	}
}

func TestSpooledRecoveryReplaysInOrder(t *testing.T) {
	items := []proto.Item{"a", "b"}
	cfg := core.Config{
		Sites:     3,
		Placement: fullPlacement(items, 3),
		Method:    core.MethodSpooler,
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(3)
	// Several updates to the same item: replay must end on the newest.
	for i := range 5 {
		writeRetry(t, c, 1, "a", proto.Value(100+i))
	}
	writeRetry(t, c, 2, "b", 7)

	report, err := c.Recover(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed != 6 {
		t.Fatalf("Replayed = %d, want 6", report.Replayed)
	}
	if v, _, _ := c.Site(3).Store.Committed("a"); v != 104 {
		t.Fatalf("replayed a = %d, want the newest 104", v)
	}
	if v, _, _ := c.Site(3).Store.Committed("b"); v != 7 {
		t.Fatalf("replayed b = %d, want 7", v)
	}
	// The spool at the peers is drained.
	for _, s := range []proto.SiteID{1, 2} {
		if n := c.Site(s).Spool.Pending(3); n != 0 {
			t.Fatalf("site %v still spools %d updates", s, n)
		}
	}
}

// TestSpooledReplayMergesSpoolersInCommitOrder: a spooler that crashed
// during the victim's outage holds only the later updates. Its list must
// not replay first, or every older update is skipped and goes unrecorded.
func TestSpooledReplayMergesSpoolersInCommitOrder(t *testing.T) {
	cfg := core.Config{
		Sites:     3,
		Placement: fullPlacement([]proto.Item{"a"}, 3),
		Method:    core.MethodSpooler,
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(3)
	writeRetry(t, c, 2, "a", 1)
	writeRetry(t, c, 2, "a", 2)
	c.Crash(1) // its spool for 3 is gone; site 2's still holds both
	if _, err := c.Recover(ctx, 1); err != nil {
		t.Fatal(err)
	}
	writeRetry(t, c, 2, "a", 3)
	writeRetry(t, c, 2, "a", 4)

	report, err := c.Recover(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed != 4 {
		t.Fatalf("Replayed = %d, want all 4 missed updates", report.Replayed)
	}
	if v, _, _ := c.Site(3).Store.Committed("a"); v != 4 {
		t.Fatalf("replayed a = %d, want the newest 4", v)
	}
	if ok, cycle := c.CertifyOneSR(); !ok {
		t.Fatalf("history not 1-SR: %v", cycle)
	}
}

func TestSynchronousCopyWithPoolDisabled(t *testing.T) {
	items := []proto.Item{"a", "b", "c"}
	cfg := core.Config{
		Sites:         3,
		Placement:     fullPlacement(items, 3),
		CopierWorkers: -1, // no pool: copies happen only when we say so
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	c.Crash(3)
	writeRetry(t, c, 1, "a", 10)

	if _, err := c.Recover(ctx, 3); err != nil {
		t.Fatal(err)
	}
	rec := c.Site(3).Recovery
	if n := len(c.Site(3).Store.UnreadableItems()); n != len(items) {
		t.Fatalf("unreadable after recover = %d, want %d (no background copiers may run)", n, len(items))
	}

	// Stalled: both synchronous entry points refuse to copy.
	rec.SetStalled(true)
	if !rec.Stalled() {
		t.Fatal("Stalled() = false after SetStalled(true)")
	}
	if err := rec.CopyNow(ctx, "a"); !errors.Is(err, recovery.ErrStalled) {
		t.Fatalf("CopyNow while stalled: err = %v, want ErrStalled", err)
	}
	if n := rec.DrainNow(ctx); n != len(items) {
		t.Fatalf("DrainNow while stalled left %d unreadable, want %d", n, len(items))
	}

	rec.SetStalled(false)
	if n := rec.DrainNow(ctx); n != 0 {
		t.Fatalf("DrainNow after resume left %d unreadable", n)
	}
	if v, _, err := c.Site(3).Store.Committed("a"); err != nil || v != 10 {
		t.Fatalf("drained copy a = (%d, %v), want 10", v, err)
	}
	if got := c.Obs().Value(3, "txn", "commit.copier"); got != int64(len(items)) {
		t.Errorf("txn/commit.copier = %d, want %d", got, len(items))
	}
}

func TestStallGateParksWorkerPool(t *testing.T) {
	items := []proto.Item{"a", "b"}
	cfg := core.Config{
		Sites:     3,
		Placement: fullPlacement(items, 3),
	}
	c := newCluster(t, cfg)
	ctx := context.Background()

	// Stall before recovery, so the eager Flush enqueues work that the
	// pool must park on rather than execute.
	c.Site(3).Recovery.SetStalled(true)
	c.Crash(3)
	writeRetry(t, c, 1, "a", 1)
	if _, err := c.Recover(ctx, 3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(c.Site(3).Store.UnreadableItems()); n != len(items) {
		t.Fatalf("stalled pool refreshed copies: %d unreadable, want %d", n, len(items))
	}

	c.Site(3).Recovery.SetStalled(false)
	if err := c.WaitCurrent(ctx, 3); err != nil {
		t.Fatalf("pool never resumed after SetStalled(false): %v", err)
	}
}

func TestJanitorSweepResolvesStrandedLocks(t *testing.T) {
	items := []proto.Item{"a"}
	cfg := core.Config{
		Sites:           3,
		Placement:       fullPlacement(items, 3),
		JanitorInterval: 10 * time.Millisecond,
		JanitorStaleAge: 30 * time.Millisecond,
		Hooks:           core.Hooks{},
		Obs:             obs.NewHub(obs.Options{}),
	}
	var c *core.Cluster
	crashed := make(chan struct{}, 1)
	cfg.Hooks.OnPrepared = func(site proto.SiteID, id proto.TxnID) {
		if site == 1 {
			select {
			case crashed <- struct{}{}:
				c.Crash(1)
			default:
			}
		}
	}
	cc, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c = cc
	c.Start()
	t.Cleanup(c.Stop)
	ctx := context.Background()

	// Coordinator dies between votes and decision; participants are left
	// prepared with locks held.
	_ = c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, "a", 1)
	})
	if _, err := c.Recover(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Presumed abort via the janitor: eventually another transaction can
	// lock the item again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := c.Exec(ctx, 2, func(ctx context.Context, tx *txn.Tx) error {
			return tx.Write(ctx, "a", 2)
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stranded locks never released: %v", err)
		}
	}
	if c.Obs().Value(2, "dm", "forced.abort")+c.Obs().Value(3, "dm", "forced.abort") == 0 {
		t.Fatal("janitor recorded no forced aborts")
	}
}

// TestParseIdentifyRoundTrip: every strategy's String parses back to it, and
// an unknown name is refused with the bad value in the message (srnode and
// srsim print it and exit).
func TestParseIdentifyRoundTrip(t *testing.T) {
	for _, want := range []recovery.Identify{
		recovery.IdentifyMarkAll, recovery.IdentifyVersionDiff,
		recovery.IdentifyFailLock, recovery.IdentifyMissingList,
	} {
		got, err := recovery.ParseIdentify(want.String())
		if err != nil || got != want {
			t.Errorf("ParseIdentify(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	for _, bad := range []string{"", "bogus", "identify(7)", "MarkAll"} {
		if got, err := recovery.ParseIdentify(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseIdentify(%q) = %v, %v; want an error naming it", bad, got, err)
		}
	}
}

// TestEveryRecoveryPathIsTraced: the spooler baseline and the non-ROWAA
// profiles recover through their own procedures, and each must still open
// and close the site's recovery in the trace and count it on the hub, or
// srtrace never closes the down window and recovery/completed misses it.
func TestEveryRecoveryPathIsTraced(t *testing.T) {
	for name, cfg := range map[string]core.Config{
		"spooler": {Method: core.MethodSpooler},
		"rowa":    {Profile: replication.ROWA},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Sites, cfg.Placement = 3, fullPlacement([]proto.Item{"a"}, 3)
			c := newCluster(t, cfg)
			c.Crash(3)
			if _, err := c.Recover(context.Background(), 3); err != nil {
				t.Fatal(err)
			}
			var started, done bool
			for _, e := range c.Obs().Tracer().Events() {
				started = started || e.Type == obs.EvRecoveryStart && e.Site == 3
				done = done || e.Type == obs.EvRecoveryDone && e.Site == 3
			}
			if !started || !done {
				t.Fatalf("trace has recovery.start %v, recovery.done %v for site 3; want both", started, done)
			}
			if got := c.Obs().Value(3, "recovery", "completed"); got != 1 {
				t.Fatalf("recovery/completed = %d, want 1", got)
			}
		})
	}
}
