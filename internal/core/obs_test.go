package core

import (
	"context"
	"testing"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
)

// TestObservabilityThroughCrashRecover drives a crash, a type-2 claim, a
// recovery, and a stale-session probe through a fully wired cluster and
// checks that every layer emitted its events into the hub.
func TestObservabilityThroughCrashRecover(t *testing.T) {
	hub := obs.NewHub(obs.Options{})
	cfg := testConfig(5)
	cfg.Obs = hub
	cfg.DisableBackground = true
	cfg.MaxAttempts = 2
	c := newCluster(t, cfg)
	ctx := context.Background()

	write(t, c, 1, "a", 10)
	c.Crash(2)

	// Writing through the stale view observes the crash.
	_ = c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		return tx.Write(ctx, "a", 11)
	})
	if err := c.Site(1).Session.ClaimDown(ctx, 2, InitialSession); err != nil {
		t.Fatalf("type-2 claim: %v", err)
	}
	write(t, c, 1, "a", 12)

	if _, err := c.Recover(ctx, 2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := c.WaitCurrent(ctx, 2); err != nil {
		t.Fatalf("wait current: %v", err)
	}

	// A request carrying the pre-crash session number must be rejected.
	var probeErr error
	err := c.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		_, _, probeErr = tx.RawRead(ctx, 2, "a", txn.RawReadOpt{
			Mode:   proto.CheckSession,
			Expect: InitialSession,
		})
		return nil
	})
	if err != nil {
		t.Fatalf("probe transaction: %v", err)
	}
	if probeErr == nil {
		t.Fatal("stale-session probe was not rejected")
	}

	seen := map[obs.EventType]bool{}
	for _, e := range hub.Tracer().Events() {
		seen[e.Type] = true
	}
	for _, want := range []obs.EventType{
		obs.EvTxnBegin,
		obs.EvTxnCommit,
		obs.EvSiteCrash,
		obs.EvSiteDownObserved,
		obs.EvControl2,
		obs.EvRecoveryStart,
		obs.EvControl1,
		obs.EvRecoveryDone,
		obs.EvCopierCopy,
		obs.EvSessionMismatch,
	} {
		if !seen[want] {
			t.Errorf("trace is missing %v", want)
		}
	}

	if got := hub.Value(2, "dm", "session_mismatch"); got == 0 {
		t.Error("session-mismatch counter did not move")
	}
	if got := hub.Value(2, "copier", "data_copy"); got == 0 {
		t.Error("data-copy counter did not move")
	}
	if got := hub.Value(1, "session", "type2_committed"); got != 1 {
		t.Errorf("type2_committed = %d, want 1", got)
	}
	mustCertify(t, c)
}

// TestClusterDefaultHub proves core.New picks up the process-wide hub when
// the config leaves Obs nil.
func TestClusterDefaultHub(t *testing.T) {
	hub := obs.NewHub(obs.Options{})
	obs.SetDefault(hub)
	defer obs.SetDefault(nil)

	c := newCluster(t, testConfig(3))
	if c.Obs() != hub {
		t.Fatal("cluster did not adopt the default hub")
	}
	write(t, c, 1, "a", 1)
	if got := hub.Value(1, "txn", "commit.user"); got != 1 {
		t.Errorf("commit counter via default hub = %d, want 1", got)
	}
}
