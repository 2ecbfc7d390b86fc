package wal

import (
	"sort"
	"testing"

	"siterecovery/internal/proto"
)

func TestOutcomeLifecycle(t *testing.T) {
	l := New()
	txn := proto.TxnID(7)

	if st, _ := l.Outcome(txn); st != proto.StateUnknown {
		t.Fatalf("fresh log Outcome = %v, want unknown", st)
	}

	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: txn})
	if st, _ := l.Outcome(txn); st != proto.StatePrepared {
		t.Fatalf("after prepare Outcome = %v, want prepared", st)
	}

	l.Append(Record{Type: RecordCommit, Role: RoleParticipant, Txn: txn, CommitSeq: 42})
	st, seq := l.Outcome(txn)
	if st != proto.StateCommitted || seq != 42 {
		t.Fatalf("after commit Outcome = (%v, %d), want (committed, 42)", st, seq)
	}
}

func TestAbortOutcome(t *testing.T) {
	l := New()
	txn := proto.TxnID(9)
	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: txn})
	l.Append(Record{Type: RecordAbort, Role: RoleParticipant, Txn: txn})
	if st, _ := l.Outcome(txn); st != proto.StateAborted {
		t.Fatalf("Outcome = %v, want aborted", st)
	}
	if len(l.InDoubt()) != 0 {
		t.Fatal("decided transaction must leave the in-doubt set")
	}
}

func TestCoordinatorPrepareIsNotInDoubt(t *testing.T) {
	l := New()
	// A coordinator never blocks on its own prepare record.
	l.Append(Record{Type: RecordPrepare, Role: RoleCoordinator, Txn: 3})
	if st, _ := l.Outcome(3); st != proto.StateUnknown {
		t.Fatalf("coordinator prepare Outcome = %v, want unknown", st)
	}
	if len(l.InDoubt()) != 0 {
		t.Fatal("coordinator prepare must not register as in doubt")
	}
}

func TestInDoubt(t *testing.T) {
	l := New()
	for _, txn := range []proto.TxnID{1, 2, 3} {
		l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: txn})
	}
	l.Append(Record{Type: RecordCommit, Role: RoleParticipant, Txn: 2, CommitSeq: 10})

	got := l.InDoubt()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("InDoubt = %v, want [1 3]", got)
	}
}

func TestScanPreservesOrderAndIsACopy(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: 1})
	l.Append(Record{Type: RecordCommit, Role: RoleParticipant, Txn: 1, CommitSeq: 5})

	scan := l.Scan()
	if len(scan) != 2 || l.Len() != 2 {
		t.Fatalf("Scan len = %d, Len = %d", len(scan), l.Len())
	}
	if scan[0].Type != RecordPrepare || scan[1].Type != RecordCommit {
		t.Fatalf("Scan order wrong: %v", scan)
	}
	scan[0].Txn = 99
	if l.Scan()[0].Txn != 1 {
		t.Fatal("Scan must return a copy")
	}
}

func TestLateDecisionOverridesNothing(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecordCommit, Role: RoleCoordinator, Txn: 4, CommitSeq: 8})
	if st, seq := l.Outcome(4); st != proto.StateCommitted || seq != 8 {
		t.Fatalf("Outcome = (%v, %d)", st, seq)
	}
}

func TestPreparedRecordCarriesWritesAndOrigin(t *testing.T) {
	l := New()
	l.Append(Record{
		Type: RecordPrepare, Role: RoleParticipant, Txn: 7, Origin: 4,
		Writes: []WriteRec{
			{Item: "x", Value: 5},
			{Item: "y", Value: 9, Refresh: true, Version: proto.Version{Counter: 3, Writer: 2}},
		},
	})
	writes, origin := l.PreparedRecord(7)
	if origin != 4 || len(writes) != 2 || writes[0].Item != "x" || writes[1].Item != "y" {
		t.Fatalf("PreparedRecord = (%v, %v)", writes, origin)
	}
	if !writes[1].Refresh || writes[1].Version.Writer != 2 {
		t.Fatalf("refresh record = %+v", writes[1])
	}
	// Returned slice is a copy.
	writes[0].Item = "mutated"
	again, _ := l.PreparedRecord(7)
	if again[0].Item != "x" {
		t.Fatal("PreparedRecord leaked internal state")
	}
	// Unknown txn: empty.
	if w, o := l.PreparedRecord(99); w != nil || o != 0 {
		t.Fatalf("unknown txn = (%v, %v)", w, o)
	}
}

func TestLatestPrepareRecordWins(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: 5, Origin: 1,
		Writes: []WriteRec{{Item: "old", Value: 1}}})
	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: 5, Origin: 2,
		Writes: []WriteRec{{Item: "new", Value: 2}}})
	writes, origin := l.PreparedRecord(5)
	if origin != 2 || writes[0].Item != "new" {
		t.Fatalf("latest prepare not returned: (%v, %v)", writes, origin)
	}
}

func TestAppendGroupCostsOneSync(t *testing.T) {
	l := New()
	recs := []Record{
		{Type: RecordPrepare, Role: RoleParticipant, Txn: 10, Origin: 1,
			Writes: []WriteRec{{Item: "x", Value: 1}}},
		{Type: RecordCommit, Role: RoleParticipant, Txn: 10, CommitSeq: 4},
		{Type: RecordAbort, Role: RoleParticipant, Txn: 11},
	}
	l.AppendGroup(recs)
	if got := l.Syncs(); got != 1 {
		t.Fatalf("AppendGroup of %d records cost %d syncs, want 1", len(recs), got)
	}
	if l.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(recs))
	}
	// The grouped records still maintain the outcome indexes.
	if state, seq := l.Outcome(10); state != proto.StateCommitted || seq != 4 {
		t.Fatalf("Outcome(10) = (%v, %d)", state, seq)
	}
	if state, _ := l.Outcome(11); state != proto.StateAborted {
		t.Fatalf("Outcome(11) = %v", state)
	}
	// Per-record Append costs one sync each.
	per := New()
	for _, rec := range recs {
		per.Append(rec)
	}
	if got := per.Syncs(); got != uint64(len(recs)) {
		t.Fatalf("per-record appends cost %d syncs, want %d", got, len(recs))
	}
	// Empty group is free.
	l.AppendGroup(nil)
	if got := l.Syncs(); got != 1 {
		t.Fatalf("empty AppendGroup changed sync count to %d", got)
	}
}
