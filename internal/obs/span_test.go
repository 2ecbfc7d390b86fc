package obs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/proto"
)

func TestSpanContextRoundTripsThroughContext(t *testing.T) {
	if _, ok := obs.SpanFrom(context.Background()); ok {
		t.Error("SpanFrom reported a span on an unannotated context")
	}
	sc := obs.SpanContext{Root: 42, Span: obs.NewSpanID(3), Parent: 7, Origin: 3}
	ctx := obs.WithSpan(context.Background(), sc)
	got, ok := obs.SpanFrom(ctx)
	if !ok || got != sc {
		t.Errorf("SpanFrom = %+v, %v; want %+v, true", got, ok, sc)
	}
	// Inner spans shadow outer ones, as nested RPCs require.
	inner := obs.SpanContext{Root: 42, Span: obs.NewSpanID(3), Parent: sc.Span, Origin: 3}
	got, _ = obs.SpanFrom(obs.WithSpan(ctx, inner))
	if got != inner {
		t.Errorf("nested SpanFrom = %+v, want %+v", got, inner)
	}
}

func TestNewSpanIDUniqueAndSiteTagged(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := obs.NewSpanID(5)
		if id == 0 {
			t.Fatal("NewSpanID returned 0")
		}
		if seen[id] {
			t.Fatalf("NewSpanID repeated %x", id)
		}
		seen[id] = true
		if got := obs.SpanOrigin(id); got != 5 {
			t.Fatalf("SpanOrigin(%x) = %v, want site5", id, got)
		}
	}
	// Different sites can never collide even at equal counter values: the
	// site lives in the high bits.
	if obs.SpanOrigin(obs.NewSpanID(2)) == obs.SpanOrigin(obs.NewSpanID(9)) {
		t.Error("span IDs from different sites share an origin tag")
	}
}

func TestSpanStartFinishEvents(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	h := obs.NewHub(obs.Options{Clock: vc})
	sc := obs.SpanContext{Root: 42, Span: obs.NewSpanID(1), Parent: 7, Origin: 1}
	prepare := proto.KindOf(proto.PrepareReq{})
	lam := uint64(12)
	lamport := func() uint64 { return lam }

	start := h.SpanStart(1, 3, sc, obs.SideClient, prepare, lamport)
	vc.Advance(250 * time.Microsecond)
	lam = 15
	h.SpanFinish(1, 3, sc, obs.SideClient, prepare, lamport, start,
		errors.New("wrap: "+proto.ErrSiteDown.Error()))

	evs := h.Tracer().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	st, fin := evs[0], evs[1]
	if st.Type != obs.EvSpanStart || st.Site != 1 || st.Peer != 3 || st.At != start ||
		st.Txn != 42 || st.Span != sc.Span || st.Parent != 7 || st.Lamport != 12 {
		t.Errorf("start event = %+v", st)
	}
	if side, kind, reason, ok := obs.SpanSide(st); !ok || side != obs.SideClient || kind != "prepare" || reason != "" {
		t.Errorf("SpanSide(start) = %q %q %q %v", side, kind, reason, ok)
	}
	if fin.Type != obs.EvSpanFinish || fin.Dur != 250*time.Microsecond || fin.Lamport != 15 || fin.At.Sub(start) != fin.Dur {
		t.Errorf("finish event = %+v", fin)
	}
	// The wrapped error is not a known sentinel, so it classifies as other.
	if side, kind, reason, ok := obs.SpanSide(fin); !ok || side != obs.SideClient || kind != "prepare" || reason != "other" {
		t.Errorf("SpanSide(finish) = %q %q %q %v", side, kind, reason, ok)
	}
	if got := h.Value(1, "rpc", "client.prepare"); got != 1 {
		t.Errorf("rpc client.prepare counter = %d, want 1", got)
	}
}

// TestPostedSpanIsAMarkedClientSide: a posted request records as the client
// side — same metric names, Detail still beginning "client:" — with the
// posted mark after the kind, and the mark survives the JSONL export and
// SpanSide, with and without a failure reason.
func TestPostedSpanIsAMarkedClientSide(t *testing.T) {
	var buf bytes.Buffer
	sink := export.NewJSONL(&buf)
	h := obs.NewHub(obs.Options{Sinks: []obs.Sink{sink}})
	sc := obs.SpanContext{Root: 42, Span: obs.NewSpanID(1), Origin: 1}
	commit := proto.KindOf(proto.CommitReq{})

	start := h.SpanStart(1, 3, sc, obs.SidePost, commit, nil)
	h.SpanFinish(1, 3, sc, obs.SidePost, commit, nil, start, nil)
	h.SpanFinish(1, 3, sc, obs.SidePost, commit, nil, start, proto.ErrSiteDown)
	h.SpanStart(1, 3, sc, obs.SideClient, commit, nil)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := export.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantDetail := []string{"client:commit/post", "client:commit/post", "client:commit/post!site-down", "client:commit"}
	wantReason := []string{"", "", "site-down", ""}
	for i, e := range evs {
		if e.Detail != wantDetail[i] {
			t.Errorf("event %d detail = %q, want %q", i, e.Detail, wantDetail[i])
		}
		side, kind, reason, ok := obs.SpanSide(e)
		if !ok || side != obs.SideClient || kind != "commit" || reason != wantReason[i] {
			t.Errorf("SpanSide(event %d) = %q %q %q %v", i, side, kind, reason, ok)
		}
		if got, want := obs.SpanPosted(e), i < 3; got != want {
			t.Errorf("SpanPosted(event %d) = %v, want %v", i, got, want)
		}
	}
	if got := h.Value(1, "rpc", "client.commit"); got != 2 {
		t.Errorf("rpc client.commit counter = %d, want 2 (posted and acknowledged starts share it)", got)
	}
	if got := h.Value(1, "rpc", "client_latency_us.commit"); got != 2 {
		t.Errorf("rpc client_latency_us.commit count = %d, want 2", got)
	}
	var table strings.Builder
	if err := h.WriteText(&table); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(table.String(), "post") {
		t.Errorf("posted spans created an instrument of their own:\n%s", table.String())
	}
}

// stallingSink passes events to a JSONL exporter, stalling the first one
// before it is written, as an emitter descheduled between sequencing its
// event and writing it would.
type stallingSink struct {
	*export.JSONL
	stalled        atomic.Bool
	paused, resume chan struct{}
}

func (s *stallingSink) Emit(e obs.Event) {
	if s.stalled.CompareAndSwap(false, true) {
		close(s.paused)
		<-s.resume
	}
	s.JSONL.Emit(e)
}

// TestExportFollowsSeq pins the order of an exported stream: the lines are
// in Seq order, so a site's span events read back from its file never carry
// a falling Lamport stamp. The first emit stalls in the sink while a second
// emitter runs; handed to the sink outside the sequence step, the second
// event's line lands first.
func TestExportFollowsSeq(t *testing.T) {
	var buf bytes.Buffer
	sink := &stallingSink{JSONL: export.NewJSONL(&buf), paused: make(chan struct{}), resume: make(chan struct{})}
	h := obs.NewHub(obs.Options{Sinks: []obs.Sink{sink}})
	probe := proto.KindOf(proto.ProbeReq{})
	var lam atomic.Uint64
	lamport := func() uint64 { return lam.Add(1) }
	emit := func(done chan<- struct{}) {
		sc := obs.SpanContext{Span: obs.NewSpanID(1), Origin: 1}
		h.SpanStart(1, 2, sc, obs.SideClient, probe, lamport)
		close(done)
	}

	first, second := make(chan struct{}), make(chan struct{})
	go emit(first)
	<-sink.paused
	go emit(second)
	// Let the second emit run as far as it can while the first is stalled.
	select {
	case <-second:
	case <-time.After(200 * time.Millisecond):
	}
	close(sink.resume)
	<-first
	<-second

	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := export.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("exported %d events, want 2", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Lamport != uint64(i+1) {
			t.Errorf("line %d holds seq %d lam %d, want seq %d lam %d", i, e.Seq, e.Lamport, i, i+1)
		}
	}
}

func TestSpanSideRejectsNonSpanEvents(t *testing.T) {
	if _, _, _, ok := obs.SpanSide(obs.Event{Type: obs.EvTxnBegin, Detail: "client:prepare"}); ok {
		t.Error("SpanSide accepted a non-span event")
	}
	if _, _, _, ok := obs.SpanSide(obs.Event{Type: obs.EvSpanStart, Detail: "garbage"}); ok {
		t.Error("SpanSide accepted an unparseable detail")
	}
}

// TestDroppedEventsCounted pins the satellite contract: ring wrap-around is
// counted by the tracer, and the cluster-level obs.events.dropped metric —
// in Value and on /metrics — reads that count, however often it wraps.
func TestDroppedEventsCounted(t *testing.T) {
	h := obs.NewHub(obs.Options{TraceCapacity: 8})
	for round, emits := range []int{20, 5} {
		for i := 0; i < emits; i++ {
			h.SiteCrash(proto.SiteID(i%3 + 1))
		}
		wantDropped := uint64(20 - 8)
		if round == 1 {
			wantDropped += 5
		}
		if got := h.Tracer().Dropped(); got != wantDropped {
			t.Fatalf("round %d: Tracer.Dropped = %d, want %d", round, got, wantDropped)
		}
		if got := h.Value(0, "obs", "events.dropped"); got != int64(wantDropped) {
			t.Errorf("round %d: obs.events.dropped counter = %d, want %d", round, got, wantDropped)
		}
		var prom strings.Builder
		if err := h.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("sr_obs_events_dropped_total{site=\"cluster\"} %d\n", wantDropped); !strings.Contains(prom.String(), want) {
			t.Errorf("round %d: /metrics lacks %q:\n%s", round, want, prom.String())
		}
	}
}

// TestConcurrentHotEmits drives the cached emits from several goroutines at
// once, on sites whose cache slots they fill concurrently: every emit is
// counted once, and the ring's sequence stays gapless.
func TestConcurrentHotEmits(t *testing.T) {
	h := obs.NewHub(obs.Options{TraceCapacity: 1 << 12})
	prepare := proto.KindOf(proto.PrepareReq{})
	const goroutines, rounds = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				site := proto.SiteID(1 + i%3)
				sc := obs.SpanContext{Root: proto.TxnID(i), Span: obs.NewSpanID(site), Origin: site}
				begun := h.TxnBegin(site, proto.TxnID(i), proto.ClassUser, 1)
				h.TxnCommit(site, proto.TxnID(i), proto.ClassUser, 1, begun)
				h.MsgSent(site, 2, prepare)
				start := h.SpanStart(site, 2, sc, obs.SideClient, prepare, nil)
				h.SpanFinish(site, 2, sc, obs.SideClient, prepare, nil, start, nil)
			}
		}()
	}
	wg.Wait()
	const want = goroutines * rounds
	for _, c := range []struct{ sub, name string }{{"txn", "commit"}, {"net", "sent"}, {"rpc", "client"}} {
		if got := h.Sum(c.sub, c.name); got != want {
			t.Errorf("Sum(%q, %q) = %d, want %d", c.sub, c.name, got, want)
		}
	}
	for i, e := range h.Tracer().Events() {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: the sequence has a gap", i, e.Seq)
		}
	}
}
