package obs_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

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
	h := obs.NewHub(obs.Options{})
	sc := obs.SpanContext{Root: 42, Span: obs.NewSpanID(1), Parent: 7, Origin: 1}

	h.SpanStart(1, 3, sc, obs.SideClient, "prepare", 12)
	h.SpanFinish(1, 3, sc, obs.SideClient, "prepare", 15, 250*time.Microsecond,
		errors.New("wrap: "+proto.ErrSiteDown.Error()))

	evs := h.Tracer().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	start, fin := evs[0], evs[1]
	if start.Type != obs.EvSpanStart || start.Site != 1 || start.Peer != 3 ||
		start.Txn != 42 || start.Span != sc.Span || start.Parent != 7 || start.Lamport != 12 {
		t.Errorf("start event = %+v", start)
	}
	if side, kind, reason, ok := obs.SpanSide(start); !ok || side != obs.SideClient || kind != "prepare" || reason != "" {
		t.Errorf("SpanSide(start) = %q %q %q %v", side, kind, reason, ok)
	}
	if fin.Type != obs.EvSpanFinish || fin.Dur != 250*time.Microsecond || fin.Lamport != 15 {
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

	h.SpanStart(1, 3, sc, obs.SidePost, "commit", 12)
	h.SpanFinish(1, 3, sc, obs.SidePost, "commit", 12, 9*time.Microsecond, nil)
	h.SpanFinish(1, 3, sc, obs.SidePost, "commit", 12, 9*time.Microsecond, proto.ErrSiteDown)
	h.SpanStart(1, 3, sc, obs.SideClient, "commit", 12)
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

func TestSpanSideRejectsNonSpanEvents(t *testing.T) {
	if _, _, _, ok := obs.SpanSide(obs.Event{Type: obs.EvTxnBegin, Detail: "client:prepare"}); ok {
		t.Error("SpanSide accepted a non-span event")
	}
	if _, _, _, ok := obs.SpanSide(obs.Event{Type: obs.EvSpanStart, Detail: "garbage"}); ok {
		t.Error("SpanSide accepted an unparseable detail")
	}
}

// TestDroppedEventsCounted pins the satellite contract: ring wrap-around is
// counted into the cluster-level obs.events.dropped metric, matching the
// tracer's own Dropped() accounting.
func TestDroppedEventsCounted(t *testing.T) {
	h := obs.NewHub(obs.Options{TraceCapacity: 8})
	for i := 0; i < 20; i++ {
		h.SiteCrash(proto.SiteID(i%3 + 1))
	}
	const wantDropped = 20 - 8
	if got := h.Tracer().Dropped(); got != wantDropped {
		t.Fatalf("Tracer.Dropped = %d, want %d", got, wantDropped)
	}
	if got := h.Value(0, "obs", "events.dropped"); got != wantDropped {
		t.Errorf("obs.events.dropped counter = %d, want %d", got, wantDropped)
	}
}
