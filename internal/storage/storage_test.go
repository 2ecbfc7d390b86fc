package storage

import (
	"errors"
	"reflect"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/wal"
)

// These tests are the volatile half's: the pending set, the marks and Crash
// exist once, in Store, so they are checked once, over the mem table. What a
// table must do for them is storage/enginetest's.

const initialTxn proto.TxnID = 1

func newStore(t *testing.T, items ...proto.Item) *Store {
	t.Helper()
	return NewMem(3, items, initialTxn)
}

func TestInitialState(t *testing.T) {
	s := newStore(t, "x", "y")
	if s.Site() != 3 {
		t.Errorf("Site = %v, want 3", s.Site())
	}
	if !s.HasCopy("x") || !s.HasCopy("y") || s.HasCopy("z") {
		t.Error("HasCopy wrong for initial layout")
	}
	v, ver, err := s.Committed("x")
	if err != nil || v != 0 || ver.Writer != initialTxn || ver.Counter != 0 {
		t.Errorf("Committed(x) = (%v, %v, %v)", v, ver, err)
	}
	if _, _, err := s.Committed("nope"); !errors.Is(err, ErrNoCopy) {
		t.Errorf("Committed(nope) err = %v, want ErrNoCopy", err)
	}
	if err := s.Seed("nope", 1); !errors.Is(err, ErrNoCopy) {
		t.Errorf("Seed(nope) err = %v, want ErrNoCopy", err)
	}
	items := s.Items()
	if len(items) != 2 || items[0] != "x" || items[1] != "y" {
		t.Errorf("Items = %v", items)
	}
}

func TestBufferInstallLifecycle(t *testing.T) {
	s := newStore(t, "x", "y")
	txn := proto.TxnID(10)

	if err := s.BufferWrite(txn, "x", 42); err != nil {
		t.Fatalf("BufferWrite: %v", err)
	}
	if err := s.BufferWrite(txn, "missing", 1); !errors.Is(err, ErrNoCopy) {
		t.Fatalf("BufferWrite(missing) err = %v, want ErrNoCopy", err)
	}

	// Pending writes are invisible.
	if v, _, _ := s.Committed("x"); v != 0 {
		t.Fatalf("pending write leaked: Committed(x) = %d", v)
	}
	if got := s.Pending(txn); !reflect.DeepEqual(got, []wal.WriteRec{{Item: "x", Value: 42}}) {
		t.Fatalf("Pending = %+v", got)
	}
	// The set is keyed by item and sorted: a second write of y replaces the
	// first, and y, buffered first, still sorts after x.
	other := proto.TxnID(12)
	for _, w := range []wal.WriteRec{{Item: "y", Value: 1}, {Item: "x", Value: 2}, {Item: "y", Value: 3}} {
		if err := s.BufferWrite(other, w.Item, w.Value); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pending(other); !reflect.DeepEqual(got, []wal.WriteRec{{Item: "x", Value: 2}, {Item: "y", Value: 3}}) {
		t.Fatalf("Pending = %+v, want x then y, y's later value", got)
	}

	ver := proto.Version{Counter: 5, Writer: txn}
	installed, err := s.InstallPending(txn, ver)
	if err != nil || !reflect.DeepEqual(installed, []wal.WriteRec{{Item: "x", Value: 42, Version: ver}}) {
		t.Fatalf("InstallPending = %+v %v", installed, err)
	}
	v, gotVer, err := s.Committed("x")
	if err != nil || v != 42 || gotVer != ver {
		t.Fatalf("after install Committed(x) = (%v, %v, %v)", v, gotVer, err)
	}
	if len(s.Pending(txn)) != 0 {
		t.Fatal("pending buffer must be cleared after install")
	}
}

func TestDropPending(t *testing.T) {
	s := newStore(t, "x", "y")
	txn := proto.TxnID(10)
	if err := s.BufferWrite(txn, "x", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.BufferRefresh(txn, "y", 8, proto.Version{Counter: 2, Writer: 4}); err != nil {
		t.Fatal(err)
	}
	s.DropPending(txn)
	if len(s.Pending(txn)) != 0 {
		t.Fatal("DropPending left buffered writes or refreshes")
	}
	if installed, err := s.InstallPending(txn, proto.Version{Counter: 3, Writer: txn}); err != nil || len(installed) != 0 {
		t.Fatalf("InstallPending after DropPending = %+v %v", installed, err)
	}
	if v, _, _ := s.Committed("x"); v != 0 {
		t.Fatalf("aborted write visible: %d", v)
	}
	if v, _, _ := s.Committed("y"); v != 0 {
		t.Fatalf("aborted refresh visible: %d", v)
	}
}

func TestUnreadableMarks(t *testing.T) {
	s := newStore(t, "x", "y", proto.NSItem(1))

	n := s.MarkAllUnreadable()
	if n != 2 {
		t.Fatalf("MarkAllUnreadable = %d, want 2 (NS items exempt)", n)
	}
	if s.IsUnreadable(proto.NSItem(1)) {
		t.Fatal("NS item must not be marked by MarkAllUnreadable")
	}
	if !s.IsUnreadable("x") || !s.IsUnreadable("y") {
		t.Fatal("marks missing")
	}
	got := s.UnreadableItems()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("UnreadableItems = %v", got)
	}

	// A committing write clears the mark of the copy it wrote (paper §3.2).
	txn := proto.TxnID(11)
	if err := s.BufferWrite(txn, "y", 9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallPending(txn, proto.Version{Counter: 1, Writer: txn}); err != nil {
		t.Fatal(err)
	}
	if s.IsUnreadable("y") || !s.IsUnreadable("x") {
		t.Fatal("install must clear the unreadable mark of y and leave x's")
	}
}

func TestMarkUnreadableMissingItemIsNoop(t *testing.T) {
	s := newStore(t, "x")
	s.MarkUnreadable("ghost")
	if len(s.UnreadableItems()) != 0 {
		t.Fatal("marking a missing item must be a no-op")
	}
}

func TestInstallDirectVersionGuard(t *testing.T) {
	s := newStore(t, "x")
	s.MarkUnreadable("x")

	// Newer version installs and clears the mark.
	v2 := proto.Version{Counter: 2, Writer: 20}
	installed, err := s.InstallDirect("x", 200, v2)
	if err != nil || !installed {
		t.Fatalf("InstallDirect newer = (%v, %v), want install", installed, err)
	}
	if s.IsUnreadable("x") {
		t.Fatal("mark must be cleared")
	}

	// Older version is skipped but still clears the mark.
	s.MarkUnreadable("x")
	v1 := proto.Version{Counter: 1, Writer: 10}
	installed, err = s.InstallDirect("x", 100, v1)
	if err != nil || installed {
		t.Fatalf("InstallDirect older = (%v, %v), want skip", installed, err)
	}
	if s.IsUnreadable("x") {
		t.Fatal("mark must be cleared even when skipping")
	}
	if v, ver, _ := s.Committed("x"); v != 200 || ver != v2 {
		t.Fatalf("older install overwrote newer value: (%v, %v)", v, ver)
	}

	// Equal version is a no-op install.
	installed, err = s.InstallDirect("x", 999, v2)
	if err != nil || installed {
		t.Fatalf("InstallDirect equal = (%v, %v), want skip", installed, err)
	}
	if _, err := func() (bool, error) { return s.InstallDirect("ghost", 1, v2) }(); !errors.Is(err, ErrNoCopy) {
		t.Fatalf("InstallDirect(ghost) err = %v, want ErrNoCopy", err)
	}
}

func TestCrashClearsVolatileOnly(t *testing.T) {
	s := newStore(t, "x", "y")
	txnA, txnB := proto.TxnID(5), proto.TxnID(6)

	if err := s.BufferWrite(txnA, "x", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallPending(txnA, proto.Version{Counter: 3, Writer: txnA}); err != nil {
		t.Fatal(err)
	}
	if err := s.BufferWrite(txnB, "y", 60); err != nil {
		t.Fatal(err)
	}
	if err := s.BufferRefresh(txnB, "x", 61, proto.Version{Counter: 1, Writer: 2}); err != nil {
		t.Fatal(err)
	}
	s.MarkUnreadable("y")

	s.Crash()

	if len(s.Pending(txnB)) != 0 {
		t.Fatal("pending writes and refreshes must not survive a crash")
	}
	if s.IsUnreadable("y") {
		t.Fatal("unreadable marks must not survive a crash")
	}
	if v, _, _ := s.Committed("x"); v != 50 {
		t.Fatalf("committed data lost in crash: x = %d", v)
	}
}

func TestSnapshot(t *testing.T) {
	s := newStore(t, "b", "a")
	s.MarkUnreadable("a")
	snap, err := s.Snapshot()
	if err != nil || len(snap) != 2 || snap[0].Item != "a" || snap[1].Item != "b" {
		t.Fatalf("Snapshot order wrong: %v", snap)
	}
	if !snap[0].Unreadable || snap[1].Unreadable {
		t.Fatalf("Snapshot marks wrong: %v", snap)
	}
}

// TestPendingSharesTheLentSet: a transaction's pending set grows in the
// array it was lent, Pending hands out that set itself — a prepare record
// keeps it, uncopied, while the transaction is in doubt — and no other
// transaction sees it. An install forgets a set, even a lent one nothing was
// buffered in.
func TestPendingSharesTheLentSet(t *testing.T) {
	s := newStore(t, "x", "y")
	txn := proto.TxnID(2)
	var buf [4]wal.WriteRec
	s.Lend(txn, buf[:0])
	if err := s.BufferWrite(txn, "y", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.BufferWrite(txn, "x", 1); err != nil {
		t.Fatal(err)
	}
	if len(s.Pending(txn+1)) != 0 {
		t.Fatal("another transaction sees txn's pending set")
	}
	p := s.Pending(txn)
	if len(p) != 2 || p[0].Item != "x" || &p[0] != &buf[0] {
		t.Fatalf("Pending = %+v, want x and y sorted, in the lent array", p)
	}
	installed, err := s.InstallPending(txn, proto.Version{Counter: 5, Writer: txn})
	if err != nil || len(installed) != 2 || &installed[0] != &buf[0] {
		t.Fatalf("InstallPending = %+v, %v; want the lent set", installed, err)
	}
	if len(s.Pending(txn)) != 0 {
		t.Fatal("an installed set is still pending")
	}
	s.Lend(txn+1, make([]wal.WriteRec, 0, 4))
	if _, err := s.InstallPending(txn+1, proto.Version{Counter: 6, Writer: txn + 1}); err != nil {
		t.Fatal(err)
	}
	if len(s.pending) != 0 {
		t.Fatalf("sets left behind: %v", s.pending)
	}
}

// TestRefreshAndWriteInstallUnderTwoVersions is the type-1 claim's shape: one
// transaction refreshes some copies and writes another, and one install puts
// each under its own version — the refresh even where the version it carries
// is numerically older than the copy it replaces.
func TestRefreshAndWriteInstallUnderTwoVersions(t *testing.T) {
	s := newStore(t, "ns-1", "ns-2")
	down := proto.Version{Counter: 9, Writer: 50}
	if _, err := s.InstallDirect("ns-2", -1, down); err != nil { // an exclusion's "site down"
		t.Fatal(err)
	}
	s.MarkUnreadable("ns-2")

	claim := proto.TxnID(7)
	up := proto.Version{Counter: 2, Writer: 6} // numerically older, yet current
	if err := s.BufferRefresh(claim, "ns-2", 4, up); err != nil {
		t.Fatal(err)
	}
	if err := s.BufferWrite(claim, "ns-1", 3); err != nil {
		t.Fatal(err)
	}
	prepared := s.Pending(claim) // what the one prepare record carries
	want := []wal.WriteRec{{Item: "ns-1", Value: 3}, {Item: "ns-2", Value: 4, Refresh: true, Version: up}}
	if !reflect.DeepEqual(prepared, want) {
		t.Fatalf("Pending = %+v, want %+v", prepared, want)
	}

	commit := proto.Version{Counter: 12, Writer: claim}
	installed, err := s.InstallPending(claim, commit)
	want[0].Version = commit
	if err != nil || !reflect.DeepEqual(installed, want) {
		t.Fatalf("InstallPending = %+v %v, want %+v", installed, err, want)
	}
	if v, ver, _ := s.Committed("ns-1"); v != 3 || ver != commit {
		t.Fatalf("written copy = %d %v, want 3 under the commit version", v, ver)
	}
	if v, ver, _ := s.Committed("ns-2"); v != 4 || ver != up {
		t.Fatalf("refreshed copy = %d %v, want 4 under the version the refresh carried", v, ver)
	}
	if s.IsUnreadable("ns-2") {
		t.Fatal("installed refresh kept the unreadable mark")
	}
}
