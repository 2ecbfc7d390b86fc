package trace

import (
	"fmt"
	"strings"
	"testing"

	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
)

// These cover the degenerate export shapes the process-level chaos harness
// produces: a SIGKILLed site may leave an empty export (nothing was ever
// flushed), a single surviving export, or a JSONL file whose final line was
// torn mid-record by the kill.

func TestMergeNoStreams(t *testing.T) {
	m := Merge()
	if len(m.Events) != 0 || len(m.Violations) != 0 || m.Streams != 0 {
		t.Fatalf("empty merge = %+v", m)
	}
}

func TestMergeEmptyAndSingleStreams(t *testing.T) {
	// An empty export merges as a zero-length stream, not an error.
	m := Merge(nil, []obs.Event{})
	if len(m.Events) != 0 || len(m.Violations) != 0 || m.Streams != 2 {
		t.Fatalf("merge of two empty streams = %+v", m)
	}

	// A single-site export merges to itself in order, even alongside empty
	// peers.
	solo := []obs.Event{
		{Type: obs.EvTxnBegin, Site: 1, Txn: 7, At: at(1)},
		{Type: obs.EvTxnCommit, Site: 1, Txn: 7, At: at(2)},
	}
	m = Merge(nil, solo, nil)
	if len(m.Violations) != 0 || m.Streams != 3 {
		t.Fatalf("single-site merge = %+v", m)
	}
	if len(m.Events) != 2 || m.Events[0].Type != obs.EvTxnBegin || m.Events[1].Type != obs.EvTxnCommit {
		t.Fatalf("single-site merge order = %+v", m.Events)
	}
}

// TestMergeTruncatedTailExport round-trips a kill-torn export: the decoder
// drops the unterminated final record, and the surviving prefix merges
// cleanly against a peer stream.
func TestMergeTruncatedTailExport(t *testing.T) {
	full := `{"seq":1,"at_ns":1000000,"type":"txn.begin","site":2,"txn":9}` + "\n" +
		`{"seq":2,"at_ns":2000000,"type":"txn.commit","site":2,"txn":9}` + "\n" +
		`{"seq":3,"at_ns":3000000,"type":"txn.begin","site":2,"tx`
	got, err := export.Decode(strings.NewReader(full))
	if err != nil {
		t.Fatalf("decode of kill-truncated export: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events from truncated export, want the 2 intact ones: %+v", len(got), got)
	}

	peer := []obs.Event{{Type: obs.EvTxnBegin, Site: 1, Txn: 11, At: at(5)}}
	m := Merge(got, peer)
	if len(m.Violations) != 0 || len(m.Events) != 3 {
		t.Fatalf("merge with truncated stream = %+v", m)
	}

	// The same torn line in the MIDDLE of a stream is corruption, not a
	// kill artifact, and must still error.
	corrupt := `{"seq":1,"type":"txn.begin","site":2` + "\n" +
		`{"seq":2,"at_ns":2000000,"type":"txn.commit","site":2,"txn":9}` + "\n"
	if _, err := export.Decode(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-stream corruption decoded without error")
	}
	// A terminated-but-malformed final line is corruption too: the torn-tail
	// tolerance applies only to an unterminated suffix.
	badFinal := `{"seq":1,"at_ns":1000000,"type":"txn.begin","site":2,"txn":9}` + "\n" +
		`{"seq":2,"type":"txn.com` + "\n"
	if _, err := export.Decode(strings.NewReader(badFinal)); err == nil {
		t.Fatal("terminated malformed final line decoded without error")
	}
}

// TestMergePostedSpanHasRequestEdgeOnly: a posted commit's client side
// finishes when the frame is written, and the coordinator goes on to its next
// transaction; the participant installs later, after it has already started
// serving that next transaction's batch. A response edge from the server
// finish to the client finish would close a cycle here (server finish →
// client finish → next client start → next server start → server finish);
// with the request edge only the merge is clean, the post's server side
// still sorts after its client start, and it finishes after the client did.
func TestMergePostedSpanHasRequestEdgeOnly(t *testing.T) {
	const post, next = 0x1000000000010, 0x1000000000011
	posted := func(typ obs.EventType, ms int) obs.Event {
		e := span(typ, 1, 9, post, 0, obs.SideClient, 5, ms)
		e.Detail = "client:commit" + obs.PostedMark
		return e
	}
	coordinator := []obs.Event{
		posted(obs.EvSpanStart, 100),
		posted(obs.EvSpanFinish, 101),
		span(obs.EvSpanStart, 1, 10, next, 0, obs.SideClient, 5, 102),
		span(obs.EvSpanFinish, 1, 10, next, 0, obs.SideClient, 6, 140),
	}
	participant := []obs.Event{
		span(obs.EvSpanStart, 2, 9, post, 0, obs.SideServer, 4, 103),
		span(obs.EvSpanStart, 2, 10, next, 0, obs.SideServer, 4, 104),
		span(obs.EvSpanFinish, 2, 9, post, 0, obs.SideServer, 5, 130), // long after the client side
		span(obs.EvSpanFinish, 2, 10, next, 0, obs.SideServer, 5, 135),
	}
	if !obs.SpanPosted(coordinator[0]) || !obs.SpanPosted(coordinator[1]) || obs.SpanPosted(coordinator[2]) {
		t.Fatal("SpanPosted does not tell the posted client events from the acknowledged ones")
	}

	m := Merge(coordinator, participant)
	if len(m.Violations) != 0 {
		t.Fatalf("violations: %v", m.Violations)
	}
	if len(m.Events) != 8 {
		t.Fatalf("merged %d events, want 8", len(m.Events))
	}
	pos := map[string]int{}
	for i, e := range m.Events {
		side, _, _, _ := obs.SpanSide(e)
		pos[fmt.Sprintf("%s %s %x", side, e.Type, e.Span)] = i
	}
	before := func(a, b string) {
		t.Helper()
		if pos[a] >= pos[b] {
			t.Errorf("%q merged at %d, not before %q at %d", a, pos[a], b, pos[b])
		}
	}
	before(fmt.Sprintf("client span.start %x", post), fmt.Sprintf("server span.start %x", post))
	before(fmt.Sprintf("client span.finish %x", post), fmt.Sprintf("server span.finish %x", post))
	before(fmt.Sprintf("server span.finish %x", next), fmt.Sprintf("client span.finish %x", next))

	// The same streams with the mark stripped are the cycle the mark exists
	// to prevent.
	for i := range coordinator[:2] {
		coordinator[i].Detail = "client:commit"
	}
	if m := Merge(coordinator, participant); len(m.Violations) == 0 {
		t.Fatal("an acknowledged span whose server outlives its client merged without a cycle")
	}
}
