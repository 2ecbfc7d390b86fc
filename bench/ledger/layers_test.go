package main

import (
	"testing"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

func TestTxnSelfTimeSubtractsTheUnionOfChildSpans(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	finish := func(txn proto.TxnID, endUS, durUS int, detail string) obs.Event {
		return obs.Event{Type: obs.EvSpanFinish, Txn: txn, At: at(endUS), Dur: time.Duration(durUS) * time.Microsecond, Detail: detail}
	}
	events := []obs.Event{
		// txn 1: 1000 us long; children cover [100,400] ∪ [300,600] ∪ [800,900] = 600 us.
		{Type: obs.EvTxnBegin, Txn: 1, Class: proto.ClassUser, At: at(0)},
		finish(1, 400, 300, "client:write"),
		finish(1, 600, 300, "client:write"),
		finish(1, 900, 100, "client:commit"),
		finish(1, 950, 900, "server:write"), // the other side of someone's RPC: not a child
		{Type: obs.EvTxnCommit, Txn: 1, Class: proto.ClassUser, At: at(1000)},
		// txn 2 aborts: not counted.
		{Type: obs.EvTxnBegin, Txn: 2, Class: proto.ClassUser, At: at(1000)},
		{Type: obs.EvTxnAbort, Txn: 2, Class: proto.ClassUser, At: at(1100)},
		// txn 3 is a control transaction: not counted.
		{Type: obs.EvTxnBegin, Txn: 3, Class: proto.ClassControl2, At: at(1100)},
		{Type: obs.EvTxnCommit, Txn: 3, Class: proto.ClassControl2, At: at(1200)},
		// txn 4 begins outside the kept interval: not counted.
		{Type: obs.EvTxnBegin, Txn: 4, Class: proto.ClassUser, At: at(5000)},
		{Type: obs.EvTxnCommit, Txn: 4, Class: proto.ClassUser, At: at(5100)},
		// txn 5: read-only, no children: all self.
		{Type: obs.EvTxnBegin, Txn: 5, Class: proto.ClassUser, At: at(1200)},
		{Type: obs.EvTxnCommit, Txn: 5, Class: proto.ClassUser, At: at(1250)},
	}
	self, n := txnSelfTime(events, func(begin time.Time) bool { return begin.Before(at(4000)) })
	if n != 2 || self != 450*time.Microsecond {
		t.Fatalf("txnSelfTime = %v over %d txns, want 450µs over 2", self, n)
	}
}

func TestUnionWithinClipsToTheTransaction(t *testing.T) {
	t0 := time.Unix(3000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	spans := [][2]time.Time{{at(-50), at(20)}, {at(90), at(150)}, {at(10), at(30)}}
	if got := unionWithin(spans, at(0), at(100)); got != 40*time.Microsecond {
		t.Fatalf("unionWithin = %v, want 40µs", got)
	}
}
