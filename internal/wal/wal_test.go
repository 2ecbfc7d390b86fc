package wal

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

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

// TestCoordinatorDecisionLeavesOwnPrepareInDoubt: at a site that is both
// coordinator and participant, the coordinator's commit record decides the
// transaction but installs nothing. The site's participant prepare stays in
// doubt until its own participant decision, so a crash between the two
// leaves recovery something to redo.
func TestCoordinatorDecisionLeavesOwnPrepareInDoubt(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: 4, Origin: 1, Writes: []WriteRec{{Item: "a", Value: 42}}})
	l.Append(Record{Type: RecordCommit, Role: RoleCoordinator, Txn: 4, CommitSeq: 8})
	if st, seq := l.Outcome(4); st != proto.StateCommitted || seq != 8 {
		t.Fatalf("Outcome = (%v, %d), want (committed, 8)", st, seq)
	}
	if got := l.InDoubt(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("InDoubt = %v after the coordinator's decision, want [4]", got)
	}
	if writes, origin := l.PreparedRecord(4); len(writes) != 1 || origin != 1 {
		t.Fatalf("PreparedRecord = %v from %v, want the prepared write set from site 1", writes, origin)
	}
	l.Append(Record{Type: RecordCommit, Role: RoleParticipant, Txn: 4, CommitSeq: 8})
	if got := l.InDoubt(); len(got) != 0 {
		t.Fatalf("InDoubt = %v after the participant's decision, want none", got)
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

// TestSinkPreservesOrderAndIsReused: the sink sees every record in append
// order, one batch per force, in a buffer the log clears and reuses.
func TestSinkPreservesOrderAndIsReused(t *testing.T) {
	l := New()
	var seen []Record
	var batches [][]Record
	l.SetSink(func(recs []Record) {
		seen = append(seen, recs...)
		batches = append(batches, recs)
	})
	l.AppendGroup([]Record{
		{Type: RecordPrepare, Role: RoleParticipant, Txn: 1, Writes: []WriteRec{{Item: "x"}}},
		{Type: RecordCommit, Role: RoleCoordinator, Txn: 2, CommitSeq: 6},
	})
	l.Append(Record{Type: RecordCommit, Role: RoleParticipant, Txn: 1, CommitSeq: 5})

	if len(seen) != 3 || len(batches) != 2 || l.DurableLSN() != 3 {
		t.Fatalf("sink saw %d records in %d batches, LSN %d; want 3, 2, 3", len(seen), len(batches), l.DurableLSN())
	}
	if seen[0].Type != RecordPrepare || seen[1].Txn != 2 || seen[2].Txn != 1 || seen[2].CommitSeq != 5 {
		t.Fatalf("sink order wrong: %+v", seen)
	}
	if &batches[0][0] != &batches[1][0] || batches[1][0].Txn != 0 || batches[0][1].Txn != 0 {
		t.Fatalf("sink batches are not one buffer cleared after each force: %+v", batches)
	}
}

// TestSessionMonotonic: the counter starts at InitialSession, and each
// advance is one session record through the sink, in order, that touches no
// 2PC index.
func TestSessionMonotonic(t *testing.T) {
	l := New()
	var seen []Record
	l.SetSink(func(recs []Record) { seen = append(seen, recs...) })
	if got := l.Session(); got != InitialSession {
		t.Fatalf("fresh Session = %d, want %d", got, InitialSession)
	}
	if a, b := l.NextSession(), l.NextSession(); a != 2 || b != 3 {
		t.Fatalf("NextSession from 1 = %d, %d; want 2, 3", a, b)
	}
	want := []Record{{Type: RecordSession, CommitSeq: 2}, {Type: RecordSession, CommitSeq: 3}}
	if l.Session() != 3 || l.DurableLSN() != 2 || !reflect.DeepEqual(seen, want) {
		t.Fatalf("Session %d, LSN %d, sink saw %+v; want 3, 2, %+v", l.Session(), l.DurableLSN(), seen, want)
	}
	if l.Decisions() != 0 || len(l.InDoubt()) != 0 {
		t.Fatal("session records reached the 2PC indexes")
	}
}

func TestSessionCounterMonotonic(t *testing.T) {
	l := New()
	f := func(n uint8) bool {
		prev := l.Session()
		for range int(n%16) + 1 {
			next := l.NextSession()
			if next <= prev || l.Session() != next {
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

// forces counts the batches l hands its sink: one per log force.
func forces(l *Log) *int {
	n := new(int)
	l.SetSink(func([]Record) { *n++ })
	return n
}

func TestAppendGroupCostsOneSync(t *testing.T) {
	l := New()
	syncs := forces(l)
	recs := []Record{
		{Type: RecordPrepare, Role: RoleParticipant, Txn: 10, Origin: 1,
			Writes: []WriteRec{{Item: "x", Value: 1}}},
		{Type: RecordCommit, Role: RoleParticipant, Txn: 10, CommitSeq: 4},
		{Type: RecordAbort, Role: RoleParticipant, Txn: 11},
	}
	l.AppendGroup(recs)
	if *syncs != 1 {
		t.Fatalf("AppendGroup of %d records cost %d syncs, want 1", len(recs), *syncs)
	}
	if l.DurableLSN() != uint64(len(recs)) {
		t.Fatalf("DurableLSN = %d, want %d", l.DurableLSN(), len(recs))
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
	perSyncs := forces(per)
	for _, rec := range recs {
		per.Append(rec)
	}
	if *perSyncs != len(recs) {
		t.Fatalf("per-record appends cost %d syncs, want %d", *perSyncs, len(recs))
	}
	// Empty group is free.
	l.AppendGroup(nil)
	if *syncs != 1 {
		t.Fatalf("empty AppendGroup changed sync count to %d", *syncs)
	}
}

// prepareCommit logs what a participant logs for one transaction: a prepare
// record with a fresh four-write set, then the commit decision.
func prepareCommit(l *Log, txn proto.TxnID) {
	writes := make([]WriteRec, 4)
	for i, item := range [...]proto.Item{"a", "b", "c", "d"} {
		writes[i] = WriteRec{Item: item, Value: proto.Value(txn)}
	}
	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: txn, Origin: 1, Writes: writes})
	l.Append(Record{Type: RecordCommit, Role: RoleParticipant, Txn: txn, CommitSeq: uint64(txn)})
}

// liveHeap reports the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLogKeepsNoHistory: a decided transaction leaves only its decision in
// memory, not its records or its write set, and the indexes still answer
// for a transaction left in doubt.
func TestLogKeepsNoHistory(t *testing.T) {
	const txns = 20000
	l := New()
	l.SetSink(func([]Record) {})
	before := liveHeap()
	for txn := proto.TxnID(1); txn <= txns; txn++ {
		prepareCommit(l, txn)
	}
	if grown := (liveHeap() - before) / txns; grown >= 100 {
		t.Fatalf("the log holds %d B per decided transaction, want < 100", grown)
	}

	l.Append(Record{Type: RecordPrepare, Role: RoleParticipant, Txn: txns + 1, Origin: 2,
		Writes: []WriteRec{{Item: "x", Value: 3}}})
	if st, seq := l.Outcome(7); st != proto.StateCommitted || seq != 7 {
		t.Fatalf("Outcome(7) = (%v, %d), want (committed, 7)", st, seq)
	}
	if st, _ := l.Outcome(txns + 1); st != proto.StatePrepared {
		t.Fatalf("Outcome of the in-doubt txn = %v, want prepared", st)
	}
	if got := l.InDoubt(); len(got) != 1 || got[0] != txns+1 {
		t.Fatalf("InDoubt = %v, want [%d]", got, txns+1)
	}
	if writes, origin := l.PreparedRecord(txns + 1); origin != 2 || len(writes) != 1 || writes[0].Item != "x" {
		t.Fatalf("PreparedRecord = (%v, %v)", writes, origin)
	}
	if w, o := l.PreparedRecord(7); w != nil || o != 0 {
		t.Fatalf("decided txn still has a prepare record: (%v, %v)", w, o)
	}
	if n := l.Decisions(); n != txns {
		t.Fatalf("Decisions = %d, want %d", n, txns)
	}
}

// BenchmarkLogPrepareCommit logs one participant's prepare and commit per op
// through a sink, and reports the heap the log still holds afterwards per
// decided transaction (retained-B/op).
func BenchmarkLogPrepareCommit(b *testing.B) {
	l := New()
	l.SetSink(func([]Record) {})
	b.ReportAllocs()
	before := liveHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepareCommit(l, proto.TxnID(i+1))
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-before)/float64(b.N), "retained-B/op")
	runtime.KeepAlive(l)
}
