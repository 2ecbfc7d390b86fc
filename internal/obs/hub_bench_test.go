package obs_test

import (
	"io"
	"testing"

	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/proto"
)

// emitOnce drives the hot-path emits one transaction attempt would.
func emitOnce(h *obs.Hub) {
	begun := h.TxnBegin(1, 7, proto.ClassUser, 1)
	h.TxnCommit(1, 7, proto.ClassUser, 1, begun)
}

// prepare is the kind the span benchmarks record, and lamport their
// Lamport source.
var (
	prepare = proto.KindOf(proto.PrepareReq{})
	lamport = func() uint64 { return 12 }
)

// BenchmarkEmitNoHub measures the cost every transaction pays when
// observability is off. This path must stay allocation-free (asserted by
// TestEmitNoHubZeroAllocs, enforced in CI by the race-free test run).
func BenchmarkEmitNoHub(b *testing.B) {
	var h *obs.Hub
	b.ReportAllocs()
	for b.Loop() {
		emitOnce(h)
	}
}

// BenchmarkEmitHub measures a live hub with the ring buffer only.
func BenchmarkEmitHub(b *testing.B) {
	h := obs.NewHub(obs.Options{})
	b.ReportAllocs()
	for b.Loop() {
		emitOnce(h)
	}
}

// BenchmarkEmitHubWithSink measures a live hub streaming every event
// through the JSONL exporter — the full-observability configuration.
func BenchmarkEmitHubWithSink(b *testing.B) {
	h := obs.NewHub(obs.Options{Sinks: []obs.Sink{export.NewJSONL(io.Discard)}})
	b.ReportAllocs()
	for b.Loop() {
		emitOnce(h)
	}
}

// TestEmitNoHubZeroAllocs pins the no-hub hot path at zero allocations per
// emit: the protocol layers call these unconditionally on every attempt.
func TestEmitNoHubZeroAllocs(t *testing.T) {
	var h *obs.Hub
	err := proto.ErrSessionMismatch
	sc := obs.SpanContext{Root: 7, Span: 0x1000000000003, Parent: 9, Origin: 1}
	if allocs := testing.AllocsPerRun(200, func() {
		begun := h.TxnBegin(1, 7, proto.ClassUser, 1)
		h.TxnCommit(1, 7, proto.ClassUser, 1, begun)
		h.TxnAbort(1, 7, proto.ClassUser, 1, begun, err)
		h.TxnAnswer(1, begun)
		h.PostsSent(1, 2, true)
		h.SessionMismatch(1, 7, 1, 2)
		h.SiteDownObserved(1, 2, 1)
		h.SiteCrash(2)
		h.CopierCopy(1, "x", 2)
		h.MsgSent(1, 2, prepare)
		start := h.SpanStart(1, 2, sc, obs.SideClient, prepare, lamport)
		h.SpanFinish(1, 2, sc, obs.SideClient, prepare, lamport, start, err)
	}); allocs != 0 {
		t.Errorf("nil-hub emits allocate %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSpanEmitNoHub measures the per-RPC cost the TCP transport pays
// for span instrumentation when no hub is installed — the acceptance bar is
// 0 allocs/op.
func BenchmarkSpanEmitNoHub(b *testing.B) {
	var h *obs.Hub
	sc := obs.SpanContext{Root: 7, Span: 0x1000000000003, Parent: 9, Origin: 1}
	b.ReportAllocs()
	for b.Loop() {
		start := h.SpanStart(1, 2, sc, obs.SideClient, prepare, lamport)
		h.SpanFinish(1, 2, sc, obs.SideClient, prepare, lamport, start, nil)
	}
}

// spanOnce drives what one side of one RPC emits on a live hub.
func spanOnce(h *obs.Hub, sc obs.SpanContext) {
	h.MsgSent(1, 2, prepare)
	start := h.SpanStart(1, 2, sc, obs.SideClient, prepare, lamport)
	h.SpanFinish(1, 2, sc, obs.SideClient, prepare, lamport, start, nil)
}

// BenchmarkSpanEmitHub measures the live-hub span path (ring buffer only):
// the per-RPC cost every srnode pays, since /metrics needs a hub. The
// instruments, Detail strings included, are created once per (site, side,
// kind), so the steady state formats nothing and takes no lock on the hub's
// table; the ceiling is asserted by TestSpanEmitHubAllocCeiling.
func BenchmarkSpanEmitHub(b *testing.B) {
	h := obs.NewHub(obs.Options{})
	sc := obs.SpanContext{Root: 7, Span: 0x1000000000003, Parent: 9, Origin: 1}
	b.ReportAllocs()
	for b.Loop() {
		spanOnce(h, sc)
	}
}

// TestSpanEmitHubAllocCeiling pins the live-hub span and transaction paths
// at zero allocations once their instruments exist: no metric name or Detail
// string is built per call (the span path once built five, a transaction
// attempt one per outcome).
func TestSpanEmitHubAllocCeiling(t *testing.T) {
	h := obs.NewHub(obs.Options{})
	sc := obs.SpanContext{Root: 7, Span: 0x1000000000003, Parent: 9, Origin: 1}
	run := func() {
		spanOnce(h, sc)
		emitOnce(h)
		begun := h.TxnBegin(1, 8, proto.ClassUser, 1)
		h.TxnAnswer(1, begun)
		h.TxnAbort(1, 8, proto.ClassUser, 1, begun, proto.ErrSiteDown)
		h.PostsSent(1, 2, true)
		h.PostsSent(1, 1, false)
	}
	run() // create the instruments
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Errorf("live-hub emits allocate %.1f times per run, want 0", allocs)
	}
}

// TestSinkReceivesStampedEvents checks the fan-out contract: sinks see
// every event, after sequencing, in Seq order.
func TestSinkReceivesStampedEvents(t *testing.T) {
	var got []obs.Event
	sink := sinkFunc(func(e obs.Event) { got = append(got, e) })
	h := obs.NewHub(obs.Options{Sinks: []obs.Sink{sink}})

	begun := h.TxnBegin(1, 7, proto.ClassUser, 1)
	h.SiteCrash(2)
	h.TxnAbort(1, 7, proto.ClassUser, 1, begun, proto.ErrSiteDown)

	if len(got) != 3 {
		t.Fatalf("sink saw %d events, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i) {
			t.Errorf("event %d reached the sink with seq %d", i, e.Seq)
		}
		if e.At.IsZero() {
			t.Errorf("event %d reached the sink unstamped", i)
		}
	}
	if got[1].Type != obs.EvSiteCrash || got[1].Site != 2 {
		t.Errorf("middle event = %+v, want site.crash at site2", got[1])
	}
}

type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(e obs.Event) { f(e) }
