package txn

import (
	"context"
	"errors"
	"testing"

	"siterecovery/internal/history"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
)

// rawBody runs a control-class transaction against the harness and returns
// the commit error.
func runControl(t *testing.T, h *harness, site proto.SiteID, body func(context.Context, *Tx) error) error {
	t.Helper()
	return h.tms[site].RunClass(context.Background(), proto.ClassControl2, body)
}

func TestRawReadAndWrite(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	err := runControl(t, h, 1, func(ctx context.Context, tx *Tx) error {
		// Raw read of a remote NS copy with no session check.
		v, ver, err := tx.RawRead(ctx, 2, proto.NSItem(3), RawReadOpt{})
		if err != nil {
			return err
		}
		if v != 1 || ver.Writer != InitialTxn {
			t.Errorf("raw read = (%v, %v)", v, ver)
		}
		// Raw write of the same item at two explicit sites.
		return tx.RawWrite([]proto.SiteID{1, 2}, proto.NSItem(3), 0)
	})
	if err != nil {
		t.Fatalf("control txn: %v", err)
	}
	for _, site := range []proto.SiteID{1, 2} {
		v, _, err := h.dms[site].Store().Committed(proto.NSItem(3))
		if err != nil || v != 0 {
			t.Fatalf("ns_%d[3] = (%v, %v), want 0", site, v, err)
		}
	}
	// Site 3's copy was not a target.
	if v, _, _ := h.dms[3].Store().Committed(proto.NSItem(3)); v != 1 {
		t.Fatal("raw write leaked to a non-target site")
	}
}

func TestRawWriteToDownSiteFails(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	h.crash(3)
	var last *Tx
	err := runControl(t, h, 1, func(ctx context.Context, tx *Tx) error {
		last = tx
		// The write is buffered: the dead target shows at Commit.
		if err := tx.RawWrite([]proto.SiteID{3}, proto.NSItem(2), 0); err != nil {
			t.Errorf("RawWrite = %v, want it buffered", err)
		}
		return nil
	})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown", err)
	}
	if site, ferr := last.Failed(); site != 3 || !errors.Is(ferr, proto.ErrSiteDown) {
		t.Fatalf("Failed() = (%v, %v), want site 3 down", site, ferr)
	}
}

func TestRawReadOldBypassesMark(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	h.dms[2].Store().MarkUnreadable("x")

	err := runControl(t, h, 1, func(ctx context.Context, tx *Tx) error {
		if _, _, err := tx.RawRead(ctx, 2, "x", RawReadOpt{
			Mode: proto.CheckSession, Expect: 1,
		}); !errors.Is(err, proto.ErrUnreadable) {
			t.Errorf("marked read err = %v, want ErrUnreadable", err)
		}
		v, _, err := tx.RawRead(ctx, 2, "x", RawReadOpt{
			Mode: proto.CheckSession, Expect: 1, ReadOld: true,
		})
		if err != nil || v != 0 {
			t.Errorf("ReadOld = (%v, %v)", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockRefreshLifecycle(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	h.dms[1].Store().MarkUnreadable("x")
	orig := proto.Version{Counter: 9, Writer: 77}

	err := h.tms[1].RunClass(context.Background(), proto.ClassCopier, func(ctx context.Context, tx *Tx) error {
		if err := tx.LockLocalExclusive(ctx, "x"); err != nil {
			return err
		}
		if !tx.LocalUnreadable("x") {
			t.Error("LocalUnreadable = false, want true")
		}
		return tx.BufferLocalRefresh("x", 123, orig)
	})
	if err != nil {
		t.Fatalf("copier txn: %v", err)
	}
	v, ver, _ := h.dms[1].Store().Committed("x")
	if v != 123 || ver != orig {
		t.Fatalf("refreshed = (%v, %v), want (123, %v)", v, ver, orig)
	}
	if h.dms[1].Store().IsUnreadable("x") {
		t.Fatal("mark not cleared")
	}
}

func TestFinishedTxRejectsOps(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	var leaked *Tx
	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		leaked = tx
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for op, err := range map[string]error{
		"Read":               second(leaked.Read(ctx, "x")),
		"Write":              leaked.Write(ctx, "x", 1),
		"RawRead":            third(leaked.RawRead(ctx, 1, "x", RawReadOpt{})),
		"RawWrite":           leaked.RawWrite([]proto.SiteID{1}, "x", 1),
		"LockLocalExclusive": leaked.LockLocalExclusive(ctx, "x"),
		"BufferLocalRefresh": leaked.BufferLocalRefresh("x", 1, proto.Version{Counter: 1, Writer: 9}),
		"Commit":             leaked.Commit(ctx),
	} {
		if !errors.Is(err, proto.ErrTxnFinished) {
			t.Errorf("%s on a finished tx = %v, want ErrTxnFinished", op, err)
		}
	}
	if pending := h.dms[1].Store().Pending(leaked.ID()); len(pending) != 0 {
		t.Errorf("BufferLocalRefresh on a finished tx buffered %+v", pending)
	}
	leaked.Abort(ctx) // idempotent, must not panic
}

func second[A any](_ A, err error) error { return err }

func third[A, B any](_ A, _ B, err error) error { return err }

func TestReadOnlyParticipantOptimization(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	// Force the read of x to land at site 3 (the copies at 1 and 2 are
	// marked unreadable, so the candidate order falls through). The write
	// goes to z at {1,2}: site 3 ends up a pure read participant and must
	// see no two-phase-commit records at all.
	h.dms[1].Store().MarkUnreadable("x")
	h.dms[2].Store().MarkUnreadable("x")
	before := h.dms[3].Log().DurableLSN()
	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		if _, err := tx.Read(ctx, "x"); err != nil {
			return err
		}
		return tx.Write(ctx, "z", 9) // z at {1,2} only
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := h.dms[3].Log().DurableLSN(); after != before {
		t.Fatalf("read-only participant logged %d records, want 0", after-before)
	}
	// The write participants committed.
	for _, site := range []proto.SiteID{1, 2} {
		if v, _, _ := h.dms[site].Store().Committed("z"); v != 9 {
			t.Fatalf("z at %v = %d", site, v)
		}
	}
	// All locks at site 3 were released via the read-only end.
	h1 := h.rec.Snapshot()
	if ok, cycle := h1.CertifyOneSR(history.DomainDB); !ok {
		t.Fatalf("not 1-SR: %v", cycle)
	}
}
