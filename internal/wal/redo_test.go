package wal

import (
	"reflect"
	"testing"

	"siterecovery/internal/proto"
	"siterecovery/internal/rawio/rawiotest"
)

// TestAppendRedo checks the physical-redo surface: LSN accounting, sink
// delivery, one sync per append, that redo records stay invisible to the
// 2PC outcome indexes, and that only a reopened log holds redo.
func TestAppendRedo(t *testing.T) {
	rawiotest.Run(t, testAppendRedo)
}

func testAppendRedo(t *testing.T, dir string) {
	l := openT(t, dir)
	sink := l.sink
	var sunk []Record
	syncs := 0
	l.SetSink(func(recs []Record) { syncs++; sunk = append(sunk, recs...); sink(recs) })

	writes := []WriteRec{{Item: "x", Value: 41, Version: proto.Version{Counter: 3, Writer: 9}}}
	lsn := l.AppendRedo(9, writes)
	if lsn != 1 || l.DurableLSN() != 1 {
		t.Fatalf("LSN = %d, durable = %d, want 1/1", lsn, l.DurableLSN())
	}
	if syncs != 1 {
		t.Fatalf("syncs = %d, want 1", syncs)
	}
	if len(sunk) != 1 || sunk[0].Type != RecordRedo {
		t.Fatalf("sink saw %+v", sunk)
	}

	// Redo records must not leak into 2PC state.
	if state, _ := l.Outcome(9); state != proto.StateUnknown {
		t.Fatalf("redo record created an outcome: %v", state)
	}
	if indoubt := l.InDoubt(); len(indoubt) != 0 {
		t.Fatalf("redo record created in-doubt state: %v", indoubt)
	}

	l.Append(Record{Type: RecordCommit, Role: RoleCoordinator, Txn: 5, CommitSeq: 2})
	if l.DurableLSN() != 2 {
		t.Fatalf("DurableLSN = %d, want 2", l.DurableLSN())
	}
	if redos := l.ScanRedo(); len(redos) != 0 {
		t.Fatalf("live log kept its redo: %+v", redos)
	}

	// A reopened log hands its redo records over once, and keeps the LSN and
	// the outcomes.
	re := openT(t, dir)
	if got := re.ScanRedo(); len(got) != 1 || !reflect.DeepEqual(got[0].Writes, writes) {
		t.Fatalf("reopened ScanRedo = %+v", got)
	}
	if got := re.ScanRedo(); len(got) != 0 {
		t.Fatalf("second ScanRedo = %+v, want nothing", got)
	}
	if st, seq := re.Outcome(5); re.DurableLSN() != 2 || st != proto.StateCommitted || seq != 2 {
		t.Fatalf("reopened LSN %d, Outcome(5) = (%v, %d)", re.DurableLSN(), st, seq)
	}
}
