package recovery_test

import (
	"context"
	"testing"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
	"siterecovery/internal/wal"
)

// TestJanitorAndRecoveryDecideAlike gives the janitor and recovery's
// in-doubt step the same undecided transaction, prepared at site 3, in each
// state its coordinator and the other sites can be in, and requires one
// verdict from both: the janitor's forced commit or abort, or nothing while
// the outcome is open, against recovery's in_doubt.committed, .aborted or
// .unresolved.
func TestJanitorAndRecoveryDecideAlike(t *testing.T) {
	for _, tc := range []decideCase{
		{name: "coordinator committed", origin: 1, decision: wal.RecordCommit, want: "committed"},
		{name: "coordinator aborted", origin: 1, decision: wal.RecordAbort, want: "aborted"},
		{name: "coordinator knows nothing", origin: 1, want: "aborted"},
		{name: "coordinator still coordinating", origin: 1, active: true, want: "open"},
		{name: "self logged commit", origin: 3, decision: wal.RecordCommit, want: "committed"},
		{name: "self prepared with TM gone", origin: 3, want: "aborted"},
		{name: "self TM still active", origin: 3, active: true, want: "open"},
		{name: "coordinator down, witness committed", origin: 1, down: true, witness: true, want: "committed"},
		{name: "coordinator down, no witness", origin: 1, down: true, want: "open"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			janitor, recovered := tc.verdict(t, false), tc.verdict(t, true)
			if janitor != tc.want || recovered != tc.want {
				t.Fatalf("janitor %s, recovery %s; want both %s", janitor, recovered, tc.want)
			}
		})
	}
}

type decideCase struct {
	name     string
	origin   proto.SiteID   // the coordinator
	decision wal.RecordType // the coordinator's logged decision, 0 for none
	active   bool           // the coordinator's TM still coordinates it
	down     bool           // the coordinator is unreachable
	witness  bool           // site 2 logged its own commit
	want     string
}

// verdict prepares the case's transaction at site 3 and lets the janitor,
// or, after a crash, recovery, settle it.
func (tc decideCase) verdict(t *testing.T, viaRecovery bool) string {
	const p = proto.SiteID(3)
	c := newCluster(t, core.Config{
		Sites:             3,
		Placement:         fullPlacement([]proto.Item{"x"}, 3),
		CopierWorkers:     -1,
		DisableBackground: true,
		JanitorStaleAge:   time.Nanosecond,
	})
	ctx := context.Background()
	if viaRecovery {
		c.Crash(p) // first: a crash resets the TM, which may be coordinating
	}
	meta := proto.TxnMeta{ID: 1 << 40, Class: proto.ClassUser, Origin: tc.origin}
	if tc.active {
		meta.ID = coordinating(t, c, tc.origin)
	}
	if viaRecovery {
		c.Site(p).Log.Append(wal.Record{
			Type: wal.RecordPrepare, Role: wal.RoleParticipant, Txn: meta.ID,
			Writes: []wal.WriteRec{{Item: "x", Value: 5}}, Origin: tc.origin,
		})
	} else if _, err := c.Site(p).DM.Handle(ctx, tc.origin, proto.BatchReq{
		Txn: meta, Ops: []proto.BatchOp{{Item: "x", Value: 5}}, Prepare: true,
		Mode: proto.CheckSession, Expect: core.InitialSession,
	}); err != nil {
		t.Fatal(err)
	}
	if tc.decision != 0 {
		c.Site(tc.origin).Log.Append(wal.Record{Type: tc.decision, Role: wal.RoleCoordinator, Txn: meta.ID, CommitSeq: 9})
	}
	if tc.witness {
		c.Site(2).Log.Append(wal.Record{Type: wal.RecordCommit, Role: wal.RoleParticipant, Txn: meta.ID, CommitSeq: 9})
	}
	if tc.down {
		c.Crash(tc.origin)
	}

	hub := c.Obs()
	count := func(layer, name string) bool { return hub.Value(p, layer, name) == 1 }
	if viaRecovery {
		if _, err := c.Recover(ctx, p); err != nil {
			t.Fatal(err)
		}
		switch {
		case count("recovery", "in_doubt.committed"):
			return "committed"
		case count("recovery", "in_doubt.aborted"):
			return "aborted"
		case count("recovery", "in_doubt.unresolved"):
			return "open"
		}
		return "uncounted"
	}
	c.Site(p).Janitor.Sweep(ctx)
	switch {
	case count("dm", "forced.commit"):
		return "committed"
	case count("dm", "forced.abort"):
		return "aborted"
	case c.Site(p).DM.Prepared() == 1:
		return "open"
	}
	return "dropped"
}

// coordinating starts a transaction at site that its TM keeps coordinating
// until the test ends, and returns its ID.
func coordinating(t *testing.T, c *core.Cluster, site proto.SiteID) proto.TxnID {
	ids, release, done := make(chan proto.TxnID, 1), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		// A control class skips the session-vector read, so a crashed
		// site's TM can coordinate it too.
		_ = c.Site(site).TM.RunClass(context.Background(), proto.ClassControl1, func(_ context.Context, tx *txn.Tx) error {
			ids <- tx.ID()
			<-release
			return proto.ErrAbortRequested
		})
	}()
	t.Cleanup(func() { close(release); <-done })
	return <-ids
}
