package dm

import (
	"context"
	"errors"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/storage"
	"siterecovery/internal/wal"
)

func userBatch(txn proto.TxnID, expect proto.Session, ops ...proto.BatchOp) proto.BatchReq {
	return proto.BatchReq{
		Txn:     meta(txn, proto.ClassUser),
		Mode:    proto.CheckSession,
		Expect:  expect,
		Ops:     ops,
		Prepare: true,
	}
}

func TestBatchExecutesAtomicallyAndVotes(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})
	syncs := 0
	f.log.SetSink(func([]wal.Record) { syncs++ })

	resp := call(t, f, userBatch(10, 5,
		proto.BatchOp{Item: "x", Value: 7, MissedBy: []proto.SiteID{3}},
		proto.BatchOp{Item: "y", Value: 8},
	))
	br, ok := resp.(proto.BatchResp)
	if !ok || !br.Vote {
		t.Fatalf("batch response = %#v, want yes vote", resp)
	}

	// Both writes are pending under exclusive locks, and the piggybacked
	// prepare logged one record carrying the whole write set in one sync.
	if len(f.store.Pending(10)) == 0 {
		t.Fatal("no pending writes after batch")
	}
	if held := f.locks.Held(10); len(held) != 2 {
		t.Fatalf("held locks = %v, want x and y", held)
	}
	if syncs != 1 {
		t.Fatalf("prepare of a 2-op batch cost %d log syncs, want 1", syncs)
	}
	writes, origin := f.log.PreparedRecord(10)
	if origin != 2 || len(writes) != 2 || writes[0].Item != "x" || writes[1].Item != "y" {
		t.Fatalf("prepare record = (%v, %v)", writes, origin)
	}

	// Committing installs every op and applies the per-op missed bookkeeping.
	f2 := newFixture(t, TrackFailLock, Callbacks{})
	call(t, f2, userBatch(11, 5,
		proto.BatchOp{Item: "x", Value: 7, MissedBy: []proto.SiteID{3}},
		proto.BatchOp{Item: "y", Value: 8},
	))
	call(t, f2, proto.CommitReq{Txn: meta(11, proto.ClassUser), CommitSeq: 9})
	for item, want := range map[proto.Item]proto.Value{"x": 7, "y": 8} {
		v, ver, err := f2.store.Committed(item)
		if err != nil || v != want || ver.Writer != 11 {
			t.Fatalf("committed %q = (%v, %v, %v), want %v by txn 11", item, v, ver, err, want)
		}
	}
	if missed := f2.dm.MissedFor(3); len(missed) != 1 || missed[0] != "x" {
		t.Fatalf("MissedFor(3) = %v, want [x]", missed)
	}
}

func TestBatchGateRejectionLeavesNoState(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})

	// A stale session number rejects the whole batch before any lock or
	// buffer is touched: all-or-nothing under one gate check.
	_, err := f.dm.Handle(context.Background(), 2, userBatch(10, 99,
		proto.BatchOp{Item: "x", Value: 7},
		proto.BatchOp{Item: "y", Value: 8},
	))
	if !errors.Is(err, proto.ErrSessionMismatch) {
		t.Fatalf("err = %v, want ErrSessionMismatch", err)
	}
	if len(f.store.Pending(10)) != 0 {
		t.Fatal("gate-rejected batch left pending writes")
	}
	if held := f.locks.Held(10); len(held) != 0 {
		t.Fatalf("gate-rejected batch left locks %v", held)
	}
	if f.log.DurableLSN() != 0 {
		t.Fatalf("gate-rejected batch logged %d records", f.log.DurableLSN())
	}
}

func TestBatchMidFailureDropsEveryBufferedWrite(t *testing.T) {
	f := newFixture(t, TrackNone, Callbacks{})

	// The second op targets an item with no local copy, so the batch fails
	// after "x" was locked and buffered. No partial write set may survive.
	_, err := f.dm.Handle(context.Background(), 2, userBatch(10, 5,
		proto.BatchOp{Item: "x", Value: 7},
		proto.BatchOp{Item: "zzz", Value: 8},
	))
	if !errors.Is(err, storage.ErrNoCopy) {
		t.Fatalf("err = %v, want ErrNoCopy", err)
	}
	if len(f.store.Pending(10)) != 0 {
		t.Fatal("failed batch left pending writes behind")
	}
	if f.log.DurableLSN() != 0 {
		t.Fatalf("failed batch logged %d records", f.log.DurableLSN())
	}
	// The lock taken before the failure is released by the coordinator's
	// abort broadcast.
	call(t, f, proto.AbortReq{Txn: meta(10, proto.ClassUser)})
	if held := f.locks.Held(10); len(held) != 0 {
		t.Fatalf("abort left locks %v", held)
	}
}
