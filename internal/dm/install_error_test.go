package dm_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/dm"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/storage"
	"siterecovery/internal/storage/enginetest"
	"siterecovery/internal/wal"
)

// TestInstallErrorKeepsTxnPreparedUntilJanitorRetries: a commit whose install
// the storage engine refuses is neither logged-but-unapplied nor forgotten
// with its locks leaked. The error is returned and counted, the transaction
// stays prepared under its lock with its pending write and the copy's mark
// intact, and the janitor's next sweep re-asks the decision and commits it.
func TestInstallErrorKeepsTxnPreparedUntilJanitorRetries(t *testing.T) {
	ctx := context.Background()
	d := storage.Deps{Site: 1, Items: []proto.Item{"x", proto.NSItem(1)}, InitialWriter: 1}
	tb := &enginetest.FailingTable{Table: storage.NewMemTable(d.Numbers()), Fail: true}
	store, err := storage.NewStore(d, tb)
	if err != nil {
		t.Fatal(err)
	}
	locks := lockmgr.New(lockmgr.Config{Timeout: 50 * time.Millisecond})
	log := wal.New()
	hub := obs.NewHub(obs.Options{})
	m := dm.New(dm.Config{Site: 1, Store: store, Locks: locks, Log: log, Obs: hub}, dm.Callbacks{})
	m.SetSession(5)
	store.MarkUnreadable("x")

	// Site 1 coordinates and participates: its log holds the decision.
	meta := proto.TxnMeta{ID: 10, Class: proto.ClassUser, Origin: 1}
	handle := func(msg proto.Message) error {
		_, err := m.Handle(ctx, 1, msg)
		return err
	}
	if err := handle(proto.WriteReq{Txn: meta, Item: "x", Value: 7, Mode: proto.CheckSession, Expect: 5}); err != nil {
		t.Fatal(err)
	}
	if err := handle(proto.PrepareReq{Txn: meta}); err != nil {
		t.Fatal(err)
	}
	log.Append(wal.Record{Type: wal.RecordCommit, Role: wal.RoleCoordinator, Txn: meta.ID, CommitSeq: 12})

	if err := handle(proto.CommitReq{Txn: meta, CommitSeq: 12}); err == nil {
		t.Fatal("commit over a failing table reported success")
	}
	if got := hub.Value(1, "storage", "install_errors"); got != 1 {
		t.Fatalf("storage/install_errors = %d, want 1", got)
	}
	if held := locks.Held(meta.ID); len(held) != 1 {
		t.Fatalf("locks after the failed install = %v, want x still held", held)
	}
	if m.Prepared() != 1 {
		t.Fatalf("Prepared() = %d, want the transaction still prepared", m.Prepared())
	}
	if v, _, _ := store.Committed("x"); v != 0 || !store.IsUnreadable("x") || len(store.Pending(meta.ID)) != 1 {
		t.Fatalf("failed install: x = %d, unreadable %v, pending %+v", v, store.IsUnreadable("x"), store.Pending(meta.ID))
	}
	// A reader of the item waits on the lock instead of seeing the old value.
	reader := proto.TxnMeta{ID: 11, Class: proto.ClassUser, Origin: 1}
	err = handle(proto.ReadReq{Txn: reader, Item: "x", Mode: proto.CheckSession, Expect: 5})
	if !errors.Is(err, proto.ErrLockTimeout) {
		t.Fatalf("read during the failed install = %v, want it to block until ErrLockTimeout", err)
	}

	tb.Fail = false
	j := recovery.NewJanitor(recovery.JanitorConfig{Local: m, StaleAge: time.Hour})
	j.Sweep(ctx)
	if got := hub.Value(1, "dm", "forced.commit"); got != 1 {
		t.Fatalf("dm/forced.commit = %d, want one forced commit", got)
	}
	if v, ver, _ := store.Committed("x"); v != 7 || ver != (proto.Version{Counter: 12, Writer: meta.ID}) {
		t.Fatalf("x after the retry = %d %v, want 7 under {12 %v}", v, ver, meta.ID)
	}
	if store.IsUnreadable("x") || len(store.Pending(meta.ID)) != 0 {
		t.Fatal("retried install left the mark or the pending set")
	}
	if m.Prepared() != 0 || len(locks.OutstandingLocks()) != 0 {
		t.Fatalf("after the retry: %d prepared, locks %v", m.Prepared(), locks.OutstandingLocks())
	}
	if state, seq := log.Outcome(meta.ID); state != proto.StateCommitted || seq != 12 {
		t.Fatalf("log outcome = %v %d", state, seq)
	}
}

// parkedInstall is a store whose first InstallPending waits for release, so
// a test can look at the site while a commit is being installed.
type parkedInstall struct {
	storage.Engine
	once     sync.Once
	entered  chan struct{}
	released chan struct{}
}

func (p *parkedInstall) InstallPending(txn proto.TxnID, v proto.Version) ([]wal.WriteRec, error) {
	p.once.Do(func() {
		close(p.entered)
		<-p.released
	})
	return p.Engine.InstallPending(txn, v)
}

// TestForcedCommitIsCountedBeforeItStopsBeingPrepared: a transaction whose
// forced commit is still installing is still prepared, so Prepared() == 0
// means its copies are installed and dm/forced.commit has moved. A duplicate
// that arrives meanwhile, or after, is a duplicate: no error, no count.
func TestForcedCommitIsCountedBeforeItStopsBeingPrepared(t *testing.T) {
	ctx := context.Background()
	d := storage.Deps{Site: 1, Items: []proto.Item{"x", proto.NSItem(1)}, InitialWriter: 1}
	mem, err := storage.NewStore(d, storage.NewMemTable(d.Numbers()))
	if err != nil {
		t.Fatal(err)
	}
	store := &parkedInstall{Engine: mem, entered: make(chan struct{}), released: make(chan struct{})}
	locks := lockmgr.New(lockmgr.Config{Timeout: 50 * time.Millisecond})
	log := wal.New()
	hub := obs.NewHub(obs.Options{})
	m := dm.New(dm.Config{Site: 1, Store: store, Locks: locks, Log: log, Obs: hub}, dm.Callbacks{})
	m.SetSession(5)

	meta := proto.TxnMeta{ID: 10, Class: proto.ClassUser, Origin: 2}
	for _, msg := range []proto.Message{
		proto.WriteReq{Txn: meta, Item: "x", Value: 7, Mode: proto.CheckSession, Expect: 5},
		proto.PrepareReq{Txn: meta},
	} {
		if _, err := m.Handle(ctx, 2, msg); err != nil {
			t.Fatal(err)
		}
	}
	forced := func() int64 { return hub.Value(1, "dm", "forced.commit") }

	done := make(chan error, 1)
	go func() { done <- m.ForceCommit(meta.ID, 12) }()
	<-store.entered
	if got := m.Prepared(); got != 1 {
		t.Errorf("Prepared() = %d while the forced commit installs, want 1", got)
	}
	if _, err := m.Handle(ctx, 2, proto.CommitReq{Txn: meta, CommitSeq: 12}); err != nil {
		t.Errorf("decision frame during the forced install = %v, want a duplicate", err)
	}
	if err := m.ForceCommit(meta.ID, 12); err != nil {
		t.Errorf("second ForceCommit during the install = %v, want a duplicate", err)
	}
	if got := forced(); got != 0 {
		t.Errorf("dm/forced.commit = %d before the install finished", got)
	}
	close(store.released)
	for m.Prepared() != 0 {
		time.Sleep(time.Millisecond)
	}
	if got := forced(); got != 1 {
		t.Errorf("dm/forced.commit = %d once Prepared() reads 0, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("ForceCommit: %v", err)
	}
	if v, _, _ := mem.Committed("x"); v != 7 {
		t.Fatalf("x = %d after the forced commit, want 7", v)
	}
	if err := m.ForceCommit(meta.ID, 12); err != nil || forced() != 1 {
		t.Fatalf("ForceCommit after the decision: %v, dm/forced.commit = %d, want nil and 1", err, forced())
	}
}
