package storage_test

import (
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/storage"
	"siterecovery/internal/storage/enginetest"
)

// TestMemConformance runs the shared table battery against the mem table.
func TestMemConformance(t *testing.T) {
	enginetest.Run(t, func(_ *testing.T, d storage.Deps) storage.Table { return storage.NewMemTable(d.Numbers()) })
}

// TestInstallErrorForgetsNothing: a table error reaches the caller and
// leaves the pending set and the marks as they were, so the install can be
// repeated once the table heals.
func TestInstallErrorForgetsNothing(t *testing.T) {
	d := storage.Deps{Site: 3, Items: []proto.Item{"x"}, InitialWriter: 1}
	tb := &enginetest.FailingTable{Table: storage.NewMemTable(d.Numbers()), Fail: true}
	s, err := storage.NewStore(d, tb)
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
