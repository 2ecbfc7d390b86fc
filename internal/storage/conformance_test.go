package storage_test

import (
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/storage"
	"siterecovery/internal/storage/enginetest"
	"siterecovery/internal/wal"
)

// TestMemConformance runs the shared table battery against the map table
// (which is also the battery's oracle — the randomized subtest then
// degenerates to a self-check, but the table-driven ones still bite).
func TestMemConformance(t *testing.T) {
	enginetest.Run(t, func(*testing.T, *wal.Log) storage.Table { return storage.NewMemTable() })
}

// TestInstallErrorForgetsNothing: a table error reaches the caller and
// leaves the pending set and the marks as they were, so the install can be
// repeated once the table heals.
func TestInstallErrorForgetsNothing(t *testing.T) {
	tb := &enginetest.FailingTable{Table: storage.NewMemTable(), Fail: true}
	s, err := storage.NewStore(storage.Deps{Site: 3, Items: []proto.Item{"x"}, InitialWriter: 1}, tb)
	if err != nil {
		t.Fatal(err)
	}
	s.MarkUnreadable("x")
	if err := s.BufferWrite(5, "x", 8); err != nil {
		t.Fatal(err)
	}
	ver := proto.Version{Counter: 2, Writer: 5}
	if _, err := s.InstallPending(5, ver); err == nil {
		t.Fatal("InstallPending swallowed the table's error")
	}
	if len(s.Pending(5)) != 1 || !s.IsUnreadable("x") {
		t.Fatalf("failed install forgot state: pending %+v, unreadable %v", s.Pending(5), s.IsUnreadable("x"))
	}
	if _, err := s.InstallDirect("x", 9, ver); err == nil {
		t.Fatal("InstallDirect swallowed the table's error")
	}
	if !s.IsUnreadable("x") {
		t.Fatal("failed InstallDirect cleared the mark")
	}

	tb.Fail = false
	if _, err := s.InstallPending(5, ver); err != nil {
		t.Fatal(err)
	}
	if v, got, _ := s.Committed("x"); v != 8 || got != ver || s.IsUnreadable("x") || len(s.Pending(5)) != 0 {
		t.Fatalf("retried install: x = %d %v, unreadable %v, pending %+v", v, got, s.IsUnreadable("x"), s.Pending(5))
	}
}
