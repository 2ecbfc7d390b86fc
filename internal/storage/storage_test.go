package storage

import (
	"errors"
	"testing"
	"testing/quick"

	"siterecovery/internal/proto"
)

const initialTxn proto.TxnID = 1

func newStore(t *testing.T, items ...proto.Item) *Mem {
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
	if !s.HasPending(txn) {
		t.Fatal("HasPending = false")
	}
	got := s.PendingWrites(txn)
	if len(got) != 1 || got["x"] != 42 {
		t.Fatalf("PendingWrites = %v", got)
	}

	ver := proto.Version{Counter: 5, Writer: txn}
	installed := s.InstallPending(txn, ver)
	if len(installed) != 1 || installed[0] != "x" {
		t.Fatalf("InstallPending = %v", installed)
	}
	v, gotVer, err := s.Committed("x")
	if err != nil || v != 42 || gotVer != ver {
		t.Fatalf("after install Committed(x) = (%v, %v, %v)", v, gotVer, err)
	}
	if s.HasPending(txn) {
		t.Fatal("pending buffer must be cleared after install")
	}
}

func TestDropPending(t *testing.T) {
	s := newStore(t, "x")
	txn := proto.TxnID(10)
	if err := s.BufferWrite(txn, "x", 7); err != nil {
		t.Fatal(err)
	}
	s.DropPending(txn)
	if s.HasPending(txn) {
		t.Fatal("DropPending left buffered writes")
	}
	if v, _, _ := s.Committed("x"); v != 0 {
		t.Fatalf("aborted write visible: %d", v)
	}
}

func TestUnreadableMarks(t *testing.T) {
	s := newStore(t, "x", "y")
	s.AddItem(proto.NSItem(1), initialTxn)

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

	s.ClearUnreadable("x")
	if s.IsUnreadable("x") {
		t.Fatal("ClearUnreadable did not clear")
	}

	// A committing write clears the mark (paper §3.2).
	txn := proto.TxnID(11)
	if err := s.BufferWrite(txn, "y", 9); err != nil {
		t.Fatal(err)
	}
	s.InstallPending(txn, proto.Version{Counter: 1, Writer: txn})
	if s.IsUnreadable("y") {
		t.Fatal("install must clear the unreadable mark")
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
	s.InstallPending(txnA, proto.Version{Counter: 3, Writer: txnA})
	if err := s.BufferWrite(txnB, "y", 60); err != nil {
		t.Fatal(err)
	}
	s.MarkUnreadable("y")
	first := s.NextSession()

	s.Crash()

	if s.HasPending(txnB) {
		t.Fatal("pending writes must not survive a crash")
	}
	if s.IsUnreadable("y") {
		t.Fatal("unreadable marks must not survive a crash")
	}
	if v, _, _ := s.Committed("x"); v != 50 {
		t.Fatalf("committed data lost in crash: x = %d", v)
	}
	if got := s.CurrentSessionCounter(); got != first {
		t.Fatalf("session counter lost in crash: %d != %d", got, first)
	}
	if next := s.NextSession(); next != first+1 {
		t.Fatalf("NextSession after crash = %d, want %d", next, first+1)
	}
}

func TestSessionCounterMonotonic(t *testing.T) {
	s := newStore(t, "x")
	f := func(n uint8) bool {
		prev := s.CurrentSessionCounter()
		for range int(n%16) + 1 {
			next := s.NextSession()
			if next <= prev {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshot(t *testing.T) {
	s := newStore(t, "b", "a")
	s.MarkUnreadable("a")
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Item != "a" || snap[1].Item != "b" {
		t.Fatalf("Snapshot order wrong: %v", snap)
	}
	if !snap[0].Unreadable || snap[1].Unreadable {
		t.Fatalf("Snapshot marks wrong: %v", snap)
	}
}

func TestPendingWritesIsolatedCopy(t *testing.T) {
	s := newStore(t, "x")
	txn := proto.TxnID(2)
	if err := s.BufferWrite(txn, "x", 1); err != nil {
		t.Fatal(err)
	}
	m := s.PendingWrites(txn)
	m["x"] = 999 // mutating the returned map must not affect the store
	if got := s.PendingWrites(txn)["x"]; got != 1 {
		t.Fatalf("PendingWrites leaked internal state: %d", got)
	}
}
