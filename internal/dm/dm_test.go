package dm

import (
	"context"
	"errors"
	"testing"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/history"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/proto"
	"siterecovery/internal/storage"
	"siterecovery/internal/wal"
)

const initialTxn proto.TxnID = 1

type fixture struct {
	dm    *Manager
	store *storage.Store
	locks *lockmgr.Manager
	log   *wal.Log
	rec   *history.Recorder
}

func newFixture(t *testing.T, tracking Tracking, cb Callbacks) *fixture {
	t.Helper()
	return newClockedFixture(t, tracking, cb, nil)
}

// newClockedFixture is newFixture whose data manager reads clk (nil: the
// wall clock).
func newClockedFixture(t *testing.T, tracking Tracking, cb Callbacks, clk clock.Clock) *fixture {
	t.Helper()
	st := storage.NewMem(1, []proto.Item{"x", "y", proto.NSItem(1)}, initialTxn)
	locks := lockmgr.New(lockmgr.Config{Timeout: 200 * time.Millisecond})
	log := wal.New()
	rec := history.NewRecorder()
	rec.RegisterTxn(initialTxn, proto.ClassInitial)
	rec.Commit(initialTxn, 0)
	m := New(Config{
		Site: 1, Store: st, Locks: locks, Log: log, Recorder: rec,
		Tracking: tracking, Clock: clk,
	}, cb)
	m.SetSession(5)
	return &fixture{dm: m, store: st, locks: locks, log: log, rec: rec}
}

func meta(id proto.TxnID, class proto.TxnClass) proto.TxnMeta {
	return proto.TxnMeta{ID: id, Class: class, Origin: 2}
}

func userRead(item proto.Item, txn proto.TxnID, expect proto.Session) proto.ReadReq {
	return proto.ReadReq{Txn: meta(txn, proto.ClassUser), Item: item, Mode: proto.CheckSession, Expect: expect}
}

func userWrite(item proto.Item, v proto.Value, txn proto.TxnID, expect proto.Session) proto.WriteReq {
	return proto.WriteReq{Txn: meta(txn, proto.ClassUser), Item: item, Value: v, Mode: proto.CheckSession, Expect: expect}
}

func call(t *testing.T, f *fixture, msg proto.Message) proto.Message {
	t.Helper()
	resp, err := f.dm.Handle(context.Background(), 2, msg)
	if err != nil {
		t.Fatalf("Handle(%T): %v", msg, err)
	}
	return resp
}

func TestSessionGate(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})

	// Wrong session number.
	_, err := f.dm.Handle(context.Background(), 2, userRead("x", 10, 99))
	if !errors.Is(err, proto.ErrSessionMismatch) {
		t.Fatalf("err = %v, want ErrSessionMismatch", err)
	}

	// Not operational.
	f.dm.SetSession(proto.NoSession)
	_, err = f.dm.Handle(context.Background(), 2, userRead("x", 10, 5))
	if !errors.Is(err, proto.ErrNotOperational) {
		t.Fatalf("err = %v, want ErrNotOperational", err)
	}

	// Control transactions bypass the gate even when not operational.
	ctrl := proto.ReadReq{Txn: meta(11, proto.ClassControl1), Item: proto.NSItem(1), Mode: proto.CheckNone}
	if _, err := f.dm.Handle(context.Background(), 2, ctrl); err != nil {
		t.Fatalf("control read while recovering: %v", err)
	}
}

func TestReadWriteCommitLifecycle(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	txn := proto.TxnID(10)
	f.rec.RegisterTxn(txn, proto.ClassUser)

	resp := call(t, f, userRead("x", txn, 5))
	if rr, ok := resp.(proto.ReadResp); !ok || rr.Value != 0 || rr.Version.Writer != initialTxn {
		t.Fatalf("read resp = %#v", resp)
	}

	call(t, f, userWrite("y", 42, txn, 5))
	if v, _, _ := f.store.Committed("y"); v != 0 {
		t.Fatal("write visible before commit")
	}

	if pr := call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)}).(proto.PrepareResp); !pr.Vote {
		t.Fatal("prepare voted no")
	}
	call(t, f, proto.CommitReq{Txn: meta(txn, proto.ClassUser), CommitSeq: 7})
	f.rec.Commit(txn, 7)

	v, ver, _ := f.store.Committed("y")
	if v != 42 || ver.Counter != 7 || ver.Writer != txn {
		t.Fatalf("committed y = (%v, %v)", v, ver)
	}
	if len(f.locks.Held(txn)) != 0 {
		t.Fatal("locks not released at commit")
	}
	if state, seq := f.log.Outcome(txn); state != proto.StateCommitted || seq != 7 {
		t.Fatalf("log outcome = (%v, %d)", state, seq)
	}

	// History: one read from initial, one write.
	h := f.rec.Snapshot()
	ops := h.Ops(history.DomainDB)
	if len(ops) != 2 {
		t.Fatalf("history ops = %d, want 2", len(ops))
	}
}

func TestAbortDropsPendingAndReleasesLocks(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	txn := proto.TxnID(10)
	call(t, f, userWrite("x", 9, txn, 5))
	call(t, f, proto.AbortReq{Txn: meta(txn, proto.ClassUser)})

	if v, _, _ := f.store.Committed("x"); v != 0 {
		t.Fatal("aborted write installed")
	}
	if len(f.locks.Held(txn)) != 0 {
		t.Fatal("locks not released at abort")
	}
	if state, _ := f.log.Outcome(txn); state != proto.StateAborted {
		t.Fatalf("log outcome = %v, want aborted", state)
	}
}

func TestCommitUnknownTxn(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	_, err := f.dm.Handle(context.Background(), 2, proto.CommitReq{Txn: meta(99, proto.ClassUser), CommitSeq: 1})
	if !errors.Is(err, proto.ErrUnknownTxn) {
		t.Fatalf("err = %v, want ErrUnknownTxn", err)
	}
}

func TestDuplicateCommitIsIdempotent(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	txn := proto.TxnID(10)
	call(t, f, userWrite("x", 9, txn, 5))
	call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)})
	call(t, f, proto.CommitReq{Txn: meta(txn, proto.ClassUser), CommitSeq: 3})
	// Second delivery must not fail.
	call(t, f, proto.CommitReq{Txn: meta(txn, proto.ClassUser), CommitSeq: 3})
}

func TestUnreadableReadTriggersCopierHook(t *testing.T) {
	var triggered []proto.Item
	f := newFixture(t, TrackNone, Callbacks{
		OnUnreadableRead: func(item proto.Item) { triggered = append(triggered, item) },
	})
	f.store.MarkUnreadable("x")

	txn := proto.TxnID(10)
	_, err := f.dm.Handle(context.Background(), 2, userRead("x", txn, 5))
	if !errors.Is(err, proto.ErrUnreadable) {
		t.Fatalf("err = %v, want ErrUnreadable", err)
	}
	if len(triggered) != 1 || triggered[0] != "x" {
		t.Fatalf("hook calls = %v", triggered)
	}
	// The backed-out shared lock must not linger.
	if len(f.locks.Held(txn)) != 0 {
		t.Fatalf("lingering locks: %v", f.locks.Held(txn))
	}

	// Quorum-style ReadOld bypasses the mark.
	req := userRead("x", txn, 5)
	req.ReadOld = true
	call(t, f, req)
}

func TestWriteClearsUnreadableAtCommit(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	f.store.MarkUnreadable("x")
	txn := proto.TxnID(10)
	call(t, f, userWrite("x", 5, txn, 5))
	if !f.store.IsUnreadable("x") {
		t.Fatal("mark must survive until commit")
	}
	call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)})
	call(t, f, proto.CommitReq{Txn: meta(txn, proto.ClassUser), CommitSeq: 2})
	if f.store.IsUnreadable("x") {
		t.Fatal("committed write must clear the mark (§3.2)")
	}
}

func TestMissedTracking(t *testing.T) {
	f := newFixture(t, TrackMissingList, Callbacks{})
	txn := proto.TxnID(10)
	req := userWrite("x", 5, txn, 5)
	req.MissedBy = []proto.SiteID{3, 4}
	call(t, f, req)
	call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)})
	call(t, f, proto.CommitReq{Txn: meta(txn, proto.ClassUser), CommitSeq: 2})

	if got := f.dm.MissedFor(3); len(got) != 1 || got[0] != "x" {
		t.Fatalf("MissedFor(3) = %v", got)
	}

	// Fetch-and-clear for site 3, inheriting entries about site 4.
	resp := call(t, f, proto.MissedFetchReq{For: 3}).(proto.MissedFetchResp)
	if len(resp.Missed) != 1 || resp.Missed[0] != "x" {
		t.Fatalf("Missed = %v", resp.Missed)
	}
	if len(resp.Others[4]) != 1 || resp.Others[4][0] != "x" {
		t.Fatalf("Others = %v", resp.Others)
	}
	if got := f.dm.MissedFor(3); len(got) != 0 {
		t.Fatalf("entries for 3 not cleared: %v", got)
	}
}

func TestFailLockTrackingOmitsOthers(t *testing.T) {
	f := newFixture(t, TrackFailLock, Callbacks{})
	txn := proto.TxnID(10)
	req := userWrite("x", 5, txn, 5)
	req.MissedBy = []proto.SiteID{3, 4}
	call(t, f, req)
	call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)})
	call(t, f, proto.CommitReq{Txn: meta(txn, proto.ClassUser), CommitSeq: 2})

	resp := call(t, f, proto.MissedFetchReq{For: 3}).(proto.MissedFetchResp)
	if len(resp.Missed) != 1 || resp.Others != nil {
		t.Fatalf("fail-lock fetch = %+v, want no Others", resp)
	}
}

func TestAdoptMissed(t *testing.T) {
	f := newFixture(t, TrackMissingList, Callbacks{})
	f.dm.AdoptMissed(map[proto.SiteID][]proto.Item{
		2: {"x"},
		1: {"y"}, // own site: ignored
	})
	if got := f.dm.MissedFor(2); len(got) != 1 || got[0] != "x" {
		t.Fatalf("MissedFor(2) = %v", got)
	}
	if got := f.dm.MissedFor(1); len(got) != 0 {
		t.Fatalf("own-site entries adopted: %v", got)
	}
}

func TestCrashLosesVolatileState(t *testing.T) {
	f := newFixture(t, TrackMissingList, Callbacks{})
	txn := proto.TxnID(10)
	req := userWrite("x", 5, txn, 5)
	req.MissedBy = []proto.SiteID{3}
	call(t, f, req)
	call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)})

	f.dm.Crash()
	if f.dm.Operational() {
		t.Fatal("crashed site reports operational")
	}
	_, err := f.dm.Handle(context.Background(), 2, userRead("x", 11, 5))
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("read on crashed site err = %v", err)
	}

	f.dm.Restart()
	if f.dm.Operational() {
		t.Fatal("restarted site must not be operational until a session loads")
	}
	// Volatile bookkeeping is gone.
	if got := f.dm.MissedFor(3); len(got) != 0 {
		t.Fatalf("fail-locks survived crash: %v", got)
	}
	// The in-doubt transaction comes back from the stable log under its
	// coordinator, with its write set pending again; resolving it as
	// committed redoes the lost install and closes the doubt.
	var asked []proto.TxnMeta
	n := f.dm.ResolveInDoubt(func(m proto.TxnMeta) (proto.TxnState, uint64) {
		asked = append(asked, m)
		if w := f.store.Pending(txn); len(w) != 1 || w[0].Item != "x" || w[0].Value != 5 || w[0].Refresh {
			t.Fatalf("restored write set = %+v", w)
		}
		return proto.StateCommitted, 9
	})
	if n != 1 || len(asked) != 1 || asked[0].ID != txn || asked[0].Origin != 2 {
		t.Fatalf("ResolveInDoubt = %d, asked %+v", n, asked)
	}
	if n := f.dm.ResolveInDoubt(nil); n != 0 || len(f.log.InDoubt()) != 0 {
		t.Fatalf("in-doubt set not closed: %d, %v", n, f.log.InDoubt())
	}
	if v, ver, _ := f.store.Committed("x"); v != 5 || ver.Counter != 9 || ver.Writer != txn {
		t.Fatalf("redo result x = (%v, %v)", v, ver)
	}

	// A prepare arriving for the lost transaction votes no, whether it is a
	// PrepareReq or a prepare batch that buffers nothing here, and leaves
	// nothing in flight.
	pr := call(t, f, proto.PrepareReq{Txn: meta(12, proto.ClassUser)}).(proto.PrepareResp)
	if pr.Vote {
		t.Fatal("prepare for unknown txn must vote no")
	}
	br := call(t, f, proto.BatchReq{Txn: meta(12, proto.ClassUser), Mode: proto.CheckNone, Prepare: true}).(proto.BatchResp)
	if br.Vote {
		t.Fatal("zero-op prepare batch for unknown txn must vote no")
	}
	if st := f.dm.StaleTxns(0); len(st) != 0 || f.dm.Prepared() != 0 {
		t.Fatalf("prepares of an unknown txn left %+v in flight, %d prepared", st, f.dm.Prepared())
	}
}

// TestInDoubtWriteSetOutlivesReusedRecords: the prepare record shares the
// pending set, which grows in its transaction's pooled record, so that
// record goes back to the pool only after the log has dropped the prepare
// record. A transaction prepared before a crash keeps its write set through
// the crash and through later transactions that take and give back pooled
// records, and its recovery redoes exactly that set.
func TestInDoubtWriteSetOutlivesReusedRecords(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	const inDoubt = proto.TxnID(10)
	call(t, f, proto.BatchReq{Txn: meta(inDoubt, proto.ClassUser), Mode: proto.CheckSession, Expect: 5,
		Ops: []proto.BatchOp{{Item: "x", Value: 5}}, Prepare: true})
	f.dm.Crash()
	f.dm.Restart()
	f.dm.SetSession(6)
	for id := proto.TxnID(20); id < 40; id++ {
		call(t, f, proto.BatchReq{Txn: meta(id, proto.ClassUser), Mode: proto.CheckSession, Expect: 6,
			Ops: []proto.BatchOp{{Item: "y", Value: proto.Value(id)}}, Prepare: true})
		call(t, f, proto.CommitReq{Txn: meta(id, proto.ClassUser), CommitSeq: uint64(id)})
	}
	if writes, _ := f.log.PreparedRecord(inDoubt); len(writes) != 1 || writes[0].Item != "x" || writes[0].Value != 5 {
		t.Fatalf("the in-doubt prepare record holds %+v, want x = 5", writes)
	}
	f.dm.ResolveInDoubt(func(proto.TxnMeta) (proto.TxnState, uint64) { return proto.StateCommitted, 50 })
	if v, ver, _ := f.store.Committed("x"); v != 5 || ver.Counter != 50 || ver.Writer != inDoubt {
		t.Fatalf("redone x = (%v, %v), want 5 under the in-doubt transaction's commit", v, ver)
	}
	if v, _, _ := f.store.Committed("y"); v != 39 {
		t.Fatalf("y = %v, want the last transaction's 39", v)
	}
}

func TestDecisionQuery(t *testing.T) {
	active := map[proto.TxnID]bool{42: true}
	f := newFixture(t, TrackNone, Callbacks{
		ActiveTxn: func(txn proto.TxnID) bool { return active[txn] },
	})

	// In-progress at the local coordinator: prepared (keep waiting).
	resp := call(t, f, proto.DecisionReq{Txn: 42}).(proto.DecisionResp)
	if resp.State != proto.StatePrepared {
		t.Fatalf("active txn decision = %v, want prepared", resp.State)
	}

	// Unknown: presumed abort.
	resp = call(t, f, proto.DecisionReq{Txn: 43}).(proto.DecisionResp)
	if resp.State != proto.StateUnknown {
		t.Fatalf("unknown txn decision = %v, want unknown", resp.State)
	}

	// Decided: from the log.
	f.log.Append(wal.Record{Type: wal.RecordCommit, Role: wal.RoleCoordinator, Txn: 44, CommitSeq: 6})
	resp = call(t, f, proto.DecisionReq{Txn: 44}).(proto.DecisionResp)
	if resp.State != proto.StateCommitted || resp.CommitSeq != 6 {
		t.Fatalf("decided txn = %+v", resp)
	}
}

func TestProbe(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	resp := call(t, f, proto.ProbeReq{}).(proto.ProbeResp)
	if !resp.Operational || resp.Session != 5 {
		t.Fatalf("probe = %+v", resp)
	}
	f.dm.SetSession(proto.NoSession)
	resp = call(t, f, proto.ProbeReq{}).(proto.ProbeResp)
	if resp.Operational {
		t.Fatalf("probe while recovering = %+v", resp)
	}
}

func TestStalePreparedAndCooperativeTermination(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1, 0))
	f := newClockedFixture(t, TrackNone, Callbacks{}, clk)
	txn := proto.TxnID(10)
	call(t, f, userWrite("x", 5, txn, 5))
	call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)})

	if stale := f.dm.StaleTxns(time.Millisecond); len(stale) != 0 {
		t.Fatalf("StaleTxns before any time passed = %+v", stale)
	}
	clk.Advance(5 * time.Millisecond)
	stale := f.dm.StaleTxns(time.Millisecond)
	if len(stale) != 1 || !stale[0].Prepared || stale[0].Meta.ID != txn || stale[0].Meta.Origin != 2 {
		t.Fatalf("StaleTxns = %+v", stale)
	}

	// The janitor learned "committed" from the coordinator's log.
	if err := f.dm.ForceCommit(txn, 11); err != nil {
		t.Fatalf("ForceCommit: %v", err)
	}
	if v, ver, _ := f.store.Committed("x"); v != 5 || ver.Counter != 11 {
		t.Fatalf("x = (%v, %v)", v, ver)
	}
	if len(f.dm.StaleTxns(0)) != 0 {
		t.Fatal("resolved txn still stale")
	}
}

func TestForceAbort(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	txn := proto.TxnID(10)
	call(t, f, userWrite("x", 5, txn, 5))
	call(t, f, proto.PrepareReq{Txn: meta(txn, proto.ClassUser)})
	f.dm.ForceAbort(txn)
	if v, _, _ := f.store.Committed("x"); v != 0 {
		t.Fatal("aborted write installed")
	}
	if len(f.locks.Held(txn)) != 0 {
		t.Fatal("locks not released")
	}
}

func TestRefreshInstallsOriginalVersion(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	f.store.MarkUnreadable("x")
	copier := meta(20, proto.ClassCopier)
	f.rec.RegisterTxn(copier.ID, proto.ClassCopier)

	if err := f.dm.LockExclusive(context.Background(), copier, "x"); err != nil {
		t.Fatalf("LockExclusive: %v", err)
	}
	orig := proto.Version{Counter: 4, Writer: 7}
	if err := f.dm.BufferRefresh(copier, "x", 77, orig); err != nil {
		t.Fatalf("BufferRefresh: %v", err)
	}

	call(t, f, proto.PrepareReq{Txn: copier})
	call(t, f, proto.CommitReq{Txn: copier, CommitSeq: 9})
	f.rec.Commit(copier.ID, 9)

	v, ver, _ := f.store.Committed("x")
	if v != 77 || ver != orig {
		t.Fatalf("refreshed copy = (%v, %v), want (77, %v)", v, ver, orig)
	}
	if f.store.IsUnreadable("x") {
		t.Fatal("refresh must clear the mark")
	}

	// The history write op carries the original writer.
	h := f.rec.Snapshot()
	ops := h.Ops(history.DomainDB)
	last := ops[len(ops)-1]
	if last.Kind != history.OpWrite || last.Writer != 7 || last.Txn != copier.ID {
		t.Fatalf("refresh history op = %+v", last)
	}
}

func TestWoundedTxnVotesNo(t *testing.T) {
	st := storage.NewMem(1, []proto.Item{"x"}, initialTxn)
	locks := lockmgr.New(lockmgr.Config{Policy: lockmgr.PolicyWoundWait, Timeout: time.Second})
	m := New(Config{Site: 1, Store: st, Locks: locks, Log: wal.New()}, Callbacks{})
	m.SetSession(5)

	young := proto.TxnMeta{ID: 100, Class: proto.ClassUser, Origin: 2}
	if _, err := m.Handle(context.Background(), 2, proto.WriteReq{Txn: young, Item: "x", Value: 1, Mode: proto.CheckSession, Expect: 5}); err != nil {
		t.Fatal(err)
	}

	// Older txn wounds it by contending.
	done := make(chan error, 1)
	go func() {
		_, err := m.Handle(context.Background(), 2, proto.WriteReq{
			Txn:  proto.TxnMeta{ID: 50, Class: proto.ClassUser, Origin: 3},
			Item: "x", Value: 2, Mode: proto.CheckSession, Expect: 5,
		})
		done <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for !locks.Wounded(young.ID) {
		if time.Now().After(deadline) {
			t.Fatal("holder never wounded")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := m.Handle(context.Background(), 2, proto.PrepareReq{Txn: young})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(proto.PrepareResp).Vote {
		t.Fatal("wounded txn must vote no")
	}
	// Coordinator aborts it; the older txn proceeds.
	if _, err := m.Handle(context.Background(), 2, proto.AbortReq{Txn: young}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("older txn write: %v", err)
	}
}

// fakeSeq is a test SeqClock: a plain high-water mark.
type fakeSeq struct{ high uint64 }

func (f *fakeSeq) ObserveCommitSeq(seq uint64) {
	if seq > f.high {
		f.high = seq
	}
}
func (f *fakeSeq) HighCommitSeq() uint64 { return f.high }

// TestCommitSeqClockObservation checks the DM's half of the Lamport
// handshake: prepare votes carry the site's high-water commit sequence
// number, and every commit decision and refresh version the DM installs is
// folded back into the clock.
func TestCommitSeqClockObservation(t *testing.T) {
	seq := &fakeSeq{high: 30}
	st := storage.NewMem(1, []proto.Item{"x"}, initialTxn)
	locks := lockmgr.New(lockmgr.Config{Timeout: 200 * time.Millisecond})
	m := New(Config{
		Site: 1, Store: st, Locks: locks, Log: wal.New(), Seq: seq,
	}, Callbacks{})
	m.SetSession(5)

	txn := proto.TxnID(10)
	call2 := func(msg proto.Message) proto.Message {
		t.Helper()
		resp, err := m.Handle(context.Background(), 2, msg)
		if err != nil {
			t.Fatalf("Handle(%T): %v", msg, err)
		}
		return resp
	}

	call2(userWrite("x", 42, txn, 5))
	pr := call2(proto.PrepareReq{Txn: meta(txn, proto.ClassUser)}).(proto.PrepareResp)
	if !pr.Vote || pr.MaxSeq != 30 {
		t.Fatalf("prepare vote = %+v, want yes with MaxSeq 30", pr)
	}

	// A commit decision from a remote coordinator advances the clock.
	call2(proto.CommitReq{Txn: meta(txn, proto.ClassUser), CommitSeq: 47})
	if seq.high != 47 {
		t.Fatalf("high = %d after commit seq 47", seq.high)
	}

	// A refresh install folds in the original writer's version counter.
	copier := proto.TxnMeta{ID: 11, Class: proto.ClassCopier, Origin: 1}
	if err := m.LockExclusive(context.Background(), copier, "x"); err != nil {
		t.Fatal(err)
	}
	if err := m.BufferRefresh(copier, "x", 99, proto.Version{Counter: 61, Writer: 9}); err != nil {
		t.Fatal(err)
	}
	call2(proto.PrepareReq{Txn: copier})
	call2(proto.CommitReq{Txn: copier, CommitSeq: 48})
	if seq.high != 61 {
		t.Fatalf("high = %d after refresh under version 61", seq.high)
	}
}
