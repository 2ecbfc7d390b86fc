package obs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/proto"
)

// Options tunes a Hub.
type Options struct {
	// Clock stamps events; defaults to the wall clock. Pass the cluster's
	// clock so virtual-time runs trace in virtual time.
	Clock clock.Clock
	// TraceCapacity bounds the event ring; DefaultTraceCapacity if zero.
	TraceCapacity int
	// Sinks receive every stamped event as it is emitted, in emit order,
	// after the event enters the ring. The set is fixed at construction so
	// the fan-out loop needs no locking on the hot path.
	Sinks []Sink
}

// Sink receives events streamed out of a Hub as they happen — the escape
// hatch from the bounded ring for long runs. Emit is called synchronously
// from whichever goroutine emitted, so implementations must be safe for
// concurrent use, fast, and must not call back into the hub.
type Sink interface {
	Emit(Event)
}

// Hub is the sink the protocol layers emit into and the only metrics
// surface: every emit both appends a typed event to the tracer and bumps an
// instrument in the hub's table, which WriteText and WritePrometheus render.
// A nil *Hub is a valid no-op sink — every method checks the receiver first
// and allocates nothing on that path, so hot paths can emit unconditionally.
type Hub struct {
	clk   clock.Clock
	tr    *Tracer
	sinks []Sink

	// spans tracks open transaction attempts (TxnBegin seen, outcome not
	// yet) so commit/abort can observe the attempt's latency. Keyed per
	// coordinating site because TxnIDs are cluster-unique but retried under
	// the same ID.
	spanMu sync.Mutex
	spans  map[spanKey]time.Time

	// table holds every instrument by key; see lookup.
	tableMu sync.Mutex
	table   atomic.Pointer[map[key]*instrument]
}

type spanKey struct {
	site proto.SiteID
	txn  proto.TxnID
}

// maxOpenSpans bounds the span table against leaks from begins that never
// see an outcome (a crashed coordinator's in-flight attempts).
const maxOpenSpans = 1 << 16

// NewHub returns a hub.
func NewHub(opts Options) *Hub {
	if opts.Clock == nil {
		opts.Clock = clock.New()
	}
	h := &Hub{
		clk:   opts.Clock,
		tr:    NewTracer(opts.TraceCapacity),
		sinks: append([]Sink(nil), opts.Sinks...),
		spans: make(map[spanKey]time.Time),
	}
	h.table.Store(&map[key]*instrument{})
	return h
}

// Tracer returns the event tracer (nil on a nil hub).
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tr
}

// emit stamps and appends one event, fans it out to the sinks, and returns
// the stamped event so span bookkeeping can reuse its timestamp. Ring
// wrap-around is surfaced as the cluster-level obs.events.dropped counter so
// trace truncation shows up on /metrics instead of failing silently.
func (h *Hub) emit(e Event) Event {
	e.At = h.clk.Now()
	e, dropped := h.tr.Append(e)
	if dropped {
		h.inc(key{0, "obs", "events", "dropped"})
	}
	for _, s := range h.sinks {
		s.Emit(e)
	}
	return e
}

// spanBegin opens a latency span for one transaction attempt.
func (h *Hub) spanBegin(site proto.SiteID, id proto.TxnID, at time.Time) {
	h.spanMu.Lock()
	defer h.spanMu.Unlock()
	if len(h.spans) >= maxOpenSpans {
		return
	}
	h.spans[spanKey{site, id}] = at
}

// spanEnd closes the span and reports the attempt's duration.
func (h *Hub) spanEnd(site proto.SiteID, id proto.TxnID, at time.Time) (time.Duration, bool) {
	h.spanMu.Lock()
	defer h.spanMu.Unlock()
	k := spanKey{site, id}
	begin, ok := h.spans[k]
	if !ok {
		return 0, false
	}
	delete(h.spans, k)
	return at.Sub(begin), true
}

// AbortReason classifies err into a short deterministic label for traces
// and metrics ("session-mismatch", "site-down", ...). It is exported so
// commands can annotate their own narration consistently.
func AbortReason(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, proto.ErrSessionMismatch):
		return "session-mismatch"
	case errors.Is(err, proto.ErrNotOperational):
		return "not-operational"
	case errors.Is(err, proto.ErrSiteDown):
		return "site-down"
	case errors.Is(err, proto.ErrDropped):
		return "dropped"
	case errors.Is(err, proto.ErrUnreadable):
		return "unreadable"
	case errors.Is(err, proto.ErrLockTimeout):
		return "lock-timeout"
	case errors.Is(err, proto.ErrWounded):
		return "wounded"
	case errors.Is(err, proto.ErrTxnAborted):
		return "vote-no"
	case errors.Is(err, proto.ErrNoQuorum):
		return "no-quorum"
	case errors.Is(err, proto.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, proto.ErrTotalFailure):
		return "total-failure"
	case errors.Is(err, proto.ErrAbortRequested):
		return "requested"
	default:
		return "other"
	}
}

// TxnBegin records one transaction attempt starting.
func (h *Hub) TxnBegin(site proto.SiteID, id proto.TxnID, class proto.TxnClass, attempt int) {
	if h == nil {
		return
	}
	h.inc(key{site, "txn", "begin", class.String()})
	ev := h.emit(Event{Type: EvTxnBegin, Site: site, Txn: id, Class: class, Attempt: attempt})
	h.spanBegin(site, id, ev.At)
}

// TxnCommit records a committed attempt; attempt is the 1-based attempt
// that succeeded, observed into the per-site attempts histogram.
func (h *Hub) TxnCommit(site proto.SiteID, id proto.TxnID, class proto.TxnClass, attempt int) {
	if h == nil {
		return
	}
	h.inc(key{site, "txn", "commit", class.String()})
	h.observe(key{site, "txn", "attempts", ""}, int64(attempt))
	ev := h.emit(Event{Type: EvTxnCommit, Site: site, Txn: id, Class: class, Attempt: attempt})
	if d, ok := h.spanEnd(site, id, ev.At); ok {
		h.observe(key{site, "txn", "commit_latency_us", ""}, d.Microseconds())
	}
}

// TxnAbort records an aborted attempt with its cause.
func (h *Hub) TxnAbort(site proto.SiteID, id proto.TxnID, class proto.TxnClass, attempt int, err error) {
	if h == nil {
		return
	}
	reason := AbortReason(err)
	h.inc(key{site, "txn", "abort", reason})
	ev := h.emit(Event{Type: EvTxnAbort, Site: site, Txn: id, Class: class, Attempt: attempt, Detail: reason})
	if d, ok := h.spanEnd(site, id, ev.At); ok {
		h.observe(key{site, "txn", "abort_latency_us", ""}, d.Microseconds())
	}
}

// TxnGiveUp records a retry loop exhausting its attempts.
func (h *Hub) TxnGiveUp(site proto.SiteID, class proto.TxnClass, attempts int) {
	if h == nil {
		return
	}
	h.inc(key{site, "txn", "giveup", ""})
	h.emit(Event{Type: EvTxnGiveUp, Site: site, Class: class, Attempt: attempts})
}

// SessionMismatch records a DM rejecting a request whose carried session
// number did not match the actual one.
func (h *Hub) SessionMismatch(site proto.SiteID, id proto.TxnID, carried, actual proto.Session) {
	if h == nil {
		return
	}
	h.inc(key{site, "dm", "session_mismatch", ""})
	h.emit(Event{Type: EvSessionMismatch, Site: site, Txn: id, Expect: carried, Actual: actual})
}

// NotOperational records a DM rejecting a session-checked request while
// recovering (as[k] = 0).
func (h *Hub) NotOperational(site proto.SiteID, id proto.TxnID) {
	if h == nil {
		return
	}
	h.inc(key{site, "dm", "not_operational", ""})
	h.emit(Event{Type: EvNotOperational, Site: site, Txn: id})
}

// InstallError counts a commit-time install the storage engine refused; the
// transaction stays prepared and the janitor retries it. Metrics only.
func (h *Hub) InstallError(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "storage", "install_errors", ""})
}

// SiteDownObserved records a TM observing a physical operation fail with
// ErrSiteDown; observed is the session number its view held for the target.
func (h *Hub) SiteDownObserved(observer, target proto.SiteID, observed proto.Session) {
	if h == nil {
		return
	}
	h.inc(key{observer, "txn", "site_down_observed", ""})
	h.emit(Event{Type: EvSiteDownObserved, Site: observer, Peer: target, Expect: observed})
}

// Control1 records a committed type-1 control transaction with the new
// session number.
func (h *Hub) Control1(site proto.SiteID, session proto.Session) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type1_committed", ""})
	h.emit(Event{Type: EvControl1, Site: site, Actual: session})
}

// Control1Fail records a failed type-1 attempt.
func (h *Hub) Control1Fail(site proto.SiteID, err error) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type1_failed", ""})
	h.emit(Event{Type: EvControl1Fail, Site: site, Detail: AbortReason(err)})
}

// Control2 records a committed type-2 control transaction claiming the
// listed sites down.
func (h *Hub) Control2(site proto.SiteID, claimed []proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type2_committed", ""})
	h.emit(Event{Type: EvControl2, Site: site, Detail: siteList(claimed)})
}

// Control2Skip records a type-2 claim found stale.
func (h *Hub) Control2Skip(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type2_skipped", ""})
	h.emit(Event{Type: EvControl2Skip, Site: site})
}

// Control2Fail records a failed type-2 attempt.
func (h *Hub) Control2Fail(site proto.SiteID, err error) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type2_failed", ""})
	h.emit(Event{Type: EvControl2Fail, Site: site, Detail: AbortReason(err)})
}

// RecoveryStart records the §3.4 procedure beginning at site.
func (h *Hub) RecoveryStart(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "recovery", "started", ""})
	h.emit(Event{Type: EvRecoveryStart, Site: site})
}

// RecoveryDone records the site becoming operational under session with
// marked copies left for the copiers.
func (h *Hub) RecoveryDone(site proto.SiteID, session proto.Session, marked int) {
	if h == nil {
		return
	}
	h.inc(key{site, "recovery", "completed", ""})
	h.lookup(key{site, "recovery", "marked", ""}, counter).v.Add(int64(marked))
	h.emit(Event{Type: EvRecoveryDone, Site: site, Actual: session, Attempt: marked})
}

// InDoubt counts an in-doubt transaction recovery found in the site's log,
// by outcome: "committed", "aborted" or "unresolved". Metrics only.
func (h *Hub) InDoubt(site proto.SiteID, outcome string) {
	if h == nil {
		return
	}
	h.inc(key{site, "recovery", "in_doubt", outcome})
}

// Forced counts a decision cooperative termination applied at a
// participant: "commit" or "abort". Metrics only.
func (h *Hub) Forced(site proto.SiteID, decision string) {
	if h == nil {
		return
	}
	h.inc(key{site, "dm", "forced", decision})
}

// CopierCopy records a copier transferring item's data from source.
func (h *Hub) CopierCopy(site proto.SiteID, item proto.Item, source proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "copier", "data_copy", ""})
	h.emit(Event{Type: EvCopierCopy, Site: site, Item: item, Peer: source})
}

// CopierSkip records a copier clearing item's mark by version comparison.
func (h *Hub) CopierSkip(site proto.SiteID, item proto.Item, source proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "copier", "version_skip", ""})
	h.emit(Event{Type: EvCopierSkip, Site: site, Item: item, Peer: source})
}

// CopierTotalFailure records an item with no readable copy anywhere.
func (h *Hub) CopierTotalFailure(site proto.SiteID, item proto.Item) {
	if h == nil {
		return
	}
	h.inc(key{site, "copier", "total_failure", ""})
	h.emit(Event{Type: EvCopierTotalFailure, Site: site, Item: item})
}

// SiteCrash records a site fail-stopping. Together with RecoveryDone it
// bounds the site's unavailability window in exported traces.
func (h *Hub) SiteCrash(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "site", "crashes", ""})
	h.emit(Event{Type: EvSiteCrash, Site: site})
}

// MsgSent counts a wire message leaving a site, by kind. Metrics only — no
// event is emitted, so wiring it into a transport never perturbs the
// byte-identical trace streams the deterministic harnesses compare.
func (h *Hub) MsgSent(from, to proto.SiteID, kind string) {
	if h == nil {
		return
	}
	h.inc(key{from, "net", "sent", kind})
}

// MsgDropped records the network losing a message of the given kind.
func (h *Hub) MsgDropped(from, to proto.SiteID, kind string) {
	if h == nil {
		return
	}
	h.inc(key{0, "net", "dropped", ""})
	h.emit(Event{Type: EvMsgDropped, Site: from, Peer: to, Detail: kind})
}

// Partitioned records the network splitting into groups.
func (h *Hub) Partitioned(detail string) {
	if h == nil {
		return
	}
	h.inc(key{0, "net", "partitions", ""})
	h.emit(Event{Type: EvPartition, Detail: detail})
}

// Healed records all partitions being removed.
func (h *Hub) Healed() {
	if h == nil {
		return
	}
	h.inc(key{0, "net", "heals", ""})
	h.emit(Event{Type: EvHeal})
}

// siteList renders sites compactly and deterministically ("2,5").
func siteList(sites []proto.SiteID) string {
	sorted := append([]proto.SiteID(nil), sites...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	parts := make([]string, len(sorted))
	for i, s := range sorted {
		parts[i] = fmt.Sprintf("%d", int(s))
	}
	return strings.Join(parts, ",")
}
