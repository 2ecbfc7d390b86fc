package obs

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"siterecovery/internal/proto"
)

// Distributed-tracing span context. A SpanContext names one RPC (or one
// transaction attempt) in the cluster-wide causal graph: Root ties it to the
// transaction or recovery claim it works for, Span identifies this unit,
// Parent is the span that caused it, and Origin is the site that allocated
// the span ID. The context travels two ways: in process via context.Context
// (WithSpan/SpanFrom), and across processes inside the tcpnet request frame,
// so a prepare sent by site 1 and served by site 3 shares one span ID with
// two recording sides.
//
// Span recording is deliberately confined to the real TCP transport: the
// deterministic in-process simulator never emits span events, so scripted
// and chaos traces stay byte-identical per seed whether or not the protocol
// layers annotate their contexts.

// SpanContext is the compact trace context propagated with every RPC.
type SpanContext struct {
	// Root is the transaction (user, control, or in-doubt) this span works
	// for; 0 when the work is not transaction-scoped (peer probes, recovery
	// fetches).
	Root proto.TxnID
	// Span identifies this span; allocate with NewSpanID.
	Span uint64
	// Parent is the causing span's ID (0 for a root span).
	Parent uint64
	// Origin is the site that allocated Span.
	Origin proto.SiteID
}

// spanIDCounter feeds NewSpanID. Process-local; NewSpanID folds the site ID
// into the high bits so concurrently allocating processes cannot collide.
var spanIDCounter atomic.Uint64

// spanIDSiteShift positions the origin site in the top 16 bits of a span ID,
// leaving 48 bits of per-process counter.
const spanIDSiteShift = 48

// NewSpanID allocates a cluster-unique span ID: the site's ID in the high
// bits over a process-local counter. It never returns 0, and it does not
// require a hub — annotating contexts stays valid (and cheap) with
// observability off.
func NewSpanID(site proto.SiteID) uint64 {
	n := spanIDCounter.Add(1) & (1<<spanIDSiteShift - 1)
	return uint64(site)<<spanIDSiteShift | n
}

// SpanOrigin extracts the allocating site back out of a span ID.
func SpanOrigin(span uint64) proto.SiteID {
	return proto.SiteID(span >> spanIDSiteShift)
}

// spanIDEpochShift positions a process-incarnation epoch below the site tag,
// leaving 32 bits of counter per incarnation.
const spanIDEpochShift = 32

// SeedSpanIDs starts the span counter at epoch<<32. The counter is
// process-local, so two incarnations of the same logical site (a SIGKILLed
// srnode relaunched over its statedir) would otherwise re-allocate the same
// span IDs and alias unrelated RPCs in a merged trace. Each incarnation
// passes a distinct epoch (srnode's -epoch flag) at startup, before any
// spans are allocated.
func SeedSpanIDs(epoch uint64) {
	spanIDCounter.Store(epoch << spanIDEpochShift)
}

// spanCtxKey keys SpanContext values in a context.Context.
type spanCtxKey struct{}

// WithSpan returns ctx annotated with sc. The annotation is inert until a
// recording transport reads it back with SpanFrom.
func WithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// IsSpanKey reports whether key is the one SpanFrom looks a span context up
// under. A context.Context that carries its span in a field of its own —
// the context tcpnet serves a traced frame under — answers Value for it
// instead of being wrapped by WithSpan.
func IsSpanKey(key any) bool {
	_, ok := key.(spanCtxKey)
	return ok
}

// SpanCarrier is a context.Context that carries its span context in a field
// of its own — the context a transaction attempt runs under, the one tcpnet
// serves a traced frame under — and answers Value for IsSpanKey with it too,
// for the contexts derived from it. SpanFrom asks one directly, so finding
// its span boxes nothing.
type SpanCarrier interface {
	context.Context
	Span() (SpanContext, bool)
}

// SpanFrom reads the span context threaded through ctx, reporting whether
// one was set. The zero SpanContext (no root, no parent) is returned for an
// unannotated context, so callers can use the result unconditionally.
func SpanFrom(ctx context.Context) (SpanContext, bool) {
	if c, ok := ctx.(SpanCarrier); ok {
		return c.Span()
	}
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// Span sides: which end of the RPC recorded the event. The side travels in
// Event.Detail as "side:kind" so one JSONL stream needs no extra field.
const (
	SideClient = "client"
	SideServer = "server"
	// SidePost is the client side of a posted (one-way) request. It is a
	// recording argument only: the events and metrics are the client side's,
	// and the events' Detail carries PostedMark after the kind.
	SidePost = "post"
)

// PostedMark follows the kind in the Detail of a posted request's client
// events: "client:commit/post". A posted span has a request edge only — no
// response frame exists, so its server side may finish long after its client
// side did, and nothing orders the two finishes.
const PostedMark = "/post"

// rpcCounts and rpcLatencies name a recording side's counter and latency
// histogram, by side index: a posted request records as the client side.
var (
	rpcCounts    = [2]string{"client", "server"}
	rpcLatencies = [2]string{"client_latency_us", "server_latency_us"}
)

// sideIndex is side's index into rpcCounts, rpcLatencies and siteHot's rpc
// arrays.
func sideIndex(side string) int {
	if side == SideServer {
		return 1
	}
	return 0
}

// spanDetail is the Detail of a span event recorded on side against rpc
// instrument in: "side:kind", with PostedMark only when posted.
func (in *instrument) spanDetail(side string) string {
	if side == SidePost {
		return in.detail
	}
	return in.detail[:len(in.detail)-len(PostedMark)]
}

// SpanStart records one side of an RPC beginning and returns the event's
// stamp, which SpanFinish measures the span from. site is the recording
// site, peer the other end, kind the message's, and lamport the recording
// site's high-water Lamport commit sequence: it is read in the step that
// sequences the event, so a site's span events carry Lamport stamps that
// never fall in sequence order (nil stamps 0). Nil-safe and
// allocation-free on a nil hub: every argument is a value, and nothing is
// formatted before the receiver check.
func (h *Hub) SpanStart(site, peer proto.SiteID, sc SpanContext, side string, kind proto.Kind, lamport func() uint64) time.Time {
	if h == nil {
		return time.Time{}
	}
	s := sideIndex(side)
	in := h.cached(&h.siteHot(site).rpc[s][kind], key{site, "rpc", rpcCounts[s], kind.String()}, counter)
	in.v.Add(1)
	e := Event{
		Type: EvSpanStart, Site: site, Peer: peer,
		Txn: sc.Root, Span: sc.Span, Parent: sc.Parent,
		Detail: in.spanDetail(side), At: h.clk.Now(),
	}
	h.record(&e, lamport)
	return e.At
}

// SpanFinish records one side of an RPC completing, with the outcome's
// error (nil for success) classified into the detail. The span lasted from
// start, SpanStart's stamp, to this event's; the latency is observed into
// a per-kind histogram on the recording site.
func (h *Hub) SpanFinish(site, peer proto.SiteID, sc SpanContext, side string, kind proto.Kind, lamport func() uint64, start time.Time, err error) {
	if h == nil {
		return
	}
	s := sideIndex(side)
	in := h.cached(&h.siteHot(site).rpcLatency[s][kind], key{site, "rpc", rpcLatencies[s], kind.String()}, hist)
	detail := in.spanDetail(side)
	if err != nil {
		detail += "!" + AbortReason(err)
	}
	e := Event{
		Type: EvSpanFinish, Site: site, Peer: peer,
		Txn: sc.Root, Span: sc.Span, Parent: sc.Parent,
		Detail: detail, At: h.clk.Now(),
	}
	e.Dur = e.At.Sub(start)
	in.h.Observe(e.Dur.Microseconds())
	h.record(&e, lamport)
}

// SpanSide splits a span event's Detail back into (side, kind, reason):
// "client:prepare", "server:read!site-down" or "client:commit/post" (kind
// "commit"; SpanPosted reports the mark). It returns ok=false for events that
// are not span events or whose detail does not parse.
func SpanSide(e Event) (side, kind, reason string, ok bool) {
	if e.Type != EvSpanStart && e.Type != EvSpanFinish {
		return "", "", "", false
	}
	side, d, _ := strings.Cut(e.Detail, ":")
	if side != SideClient && side != SideServer {
		return "", "", "", false
	}
	kind, reason, _ = strings.Cut(d, "!")
	return side, strings.TrimSuffix(kind, PostedMark), reason, true
}

// SpanPosted reports whether e is a client-side event of a posted request.
func SpanPosted(e Event) bool {
	_, _, _, ok := SpanSide(e)
	sideKind, _, _ := strings.Cut(e.Detail, "!")
	return ok && strings.HasSuffix(sideKind, PostedMark)
}
