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
	// Sinks receive every stamped event as it is emitted, in Seq order, in
	// the step that puts the event in the ring. The set is fixed at
	// construction so the fan-out loop needs no locking of its own.
	Sinks []Sink
}

// Sink receives events streamed out of a Hub as they happen — the escape
// hatch from the bounded ring for long runs. Emit is called synchronously
// from whichever goroutine emitted, under the tracer's lock, so
// implementations must be fast and must not call back into the hub.
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

	// table holds every instrument by key; see lookup. hot caches each
	// site's per-commit instruments; see siteHot.
	tableMu sync.Mutex
	table   atomic.Pointer[map[key]*instrument]
	hot     atomic.Pointer[map[proto.SiteID]*siteHot]
}

// NewHub returns a hub.
func NewHub(opts Options) *Hub {
	if opts.Clock == nil {
		opts.Clock = clock.New()
	}
	h := &Hub{
		clk:   opts.Clock,
		tr:    NewTracer(opts.TraceCapacity),
		sinks: append([]Sink(nil), opts.Sinks...),
	}
	h.table.Store(&map[key]*instrument{})
	h.hot.Store(&map[proto.SiteID]*siteHot{})
	return h
}

// Tracer returns the event tracer (nil on a nil hub).
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tr
}

// emit stamps e from the hub's clock and records it.
func (h *Hub) emit(e *Event) {
	e.At = h.clk.Now()
	h.record(e, nil)
}

// record sequences a stamped event into the ring and fans it out to the
// sinks, reading lamport (when set) in the same step.
func (h *Hub) record(e *Event, lamport func() uint64) {
	h.tr.append(e, lamport, h.sinks)
}

// abortReasons are AbortReason's labels, each with the protocol sentinel
// it names, in the order they are tried; abortReason indexes them.
var abortReasons = [...]struct {
	label string
	err   error
}{
	{"none", nil},
	{"session-mismatch", proto.ErrSessionMismatch},
	{"not-operational", proto.ErrNotOperational},
	{"site-down", proto.ErrSiteDown},
	{"dropped", proto.ErrDropped},
	{"unreadable", proto.ErrUnreadable},
	{"lock-timeout", proto.ErrLockTimeout},
	{"wounded", proto.ErrWounded},
	{"vote-no", proto.ErrTxnAborted},
	{"no-quorum", proto.ErrNoQuorum},
	{"unavailable", proto.ErrUnavailable},
	{"total-failure", proto.ErrTotalFailure},
	{"requested", proto.ErrAbortRequested},
	{"other", nil},
}

// abortReason classifies err: the index of its entry in abortReasons.
func abortReason(err error) int {
	if err == nil {
		return 0
	}
	for i := 1; i < len(abortReasons)-1; i++ {
		if errors.Is(err, abortReasons[i].err) {
			return i
		}
	}
	return len(abortReasons) - 1
}

// AbortReason classifies err into a short deterministic label for traces
// and metrics ("session-mismatch", "site-down", ...). It is exported so
// commands can annotate their own narration consistently.
func AbortReason(err error) string { return abortReasons[abortReason(err)].label }

// TxnBegin records one transaction attempt starting and returns the
// event's stamp, which the attempt hands back to TxnCommit or TxnAbort to
// have its latency observed.
func (h *Hub) TxnBegin(site proto.SiteID, id proto.TxnID, class proto.TxnClass, attempt int) time.Time {
	if h == nil {
		return time.Time{}
	}
	h.cached(&h.siteHot(site).begin[class], key{site, "txn", "begin", class.String()}, counter).v.Add(1)
	e := Event{Type: EvTxnBegin, Site: site, Txn: id, Class: class, Attempt: attempt}
	h.emit(&e)
	return e.At
}

// TxnCommit records a committed attempt; attempt is the 1-based attempt
// that succeeded, observed into the per-site attempts histogram, and begun
// is TxnBegin's stamp (zero: no latency is observed).
func (h *Hub) TxnCommit(site proto.SiteID, id proto.TxnID, class proto.TxnClass, attempt int, begun time.Time) {
	if h == nil {
		return
	}
	hot := h.siteHot(site)
	h.cached(&hot.commit[class], key{site, "txn", "commit", class.String()}, counter).v.Add(1)
	h.cached(&hot.attempts, key{site, "txn", "attempts", ""}, hist).h.Observe(int64(attempt))
	e := Event{Type: EvTxnCommit, Site: site, Txn: id, Class: class, Attempt: attempt}
	h.emit(&e)
	if !begun.IsZero() {
		h.cached(&hot.commitLatency, key{site, "txn", "commit_latency_us", ""}, hist).h.Observe(e.At.Sub(begun).Microseconds())
	}
}

// TxnAnswer observes the time from an attempt's TxnBegin stamp, begun, to
// the moment its caller was answered at the commit point. Metrics only: no
// event is emitted, so answered runs trace as unanswered ones do.
func (h *Hub) TxnAnswer(site proto.SiteID, begun time.Time) {
	if h == nil {
		return
	}
	h.cached(&h.siteHot(site).answerLatency, key{site, "txn", "answer_latency_us", ""}, hist).h.Observe(h.clk.Now().Sub(begun).Microseconds())
}

// TxnAbort records an aborted attempt with its cause; begun is as for
// TxnCommit.
func (h *Hub) TxnAbort(site proto.SiteID, id proto.TxnID, class proto.TxnClass, attempt int, begun time.Time, err error) {
	if h == nil {
		return
	}
	hot := h.siteHot(site)
	r := abortReason(err)
	reason := abortReasons[r].label
	h.cached(&hot.abort[r], key{site, "txn", "abort", reason}, counter).v.Add(1)
	e := Event{Type: EvTxnAbort, Site: site, Txn: id, Class: class, Attempt: attempt, Detail: reason}
	h.emit(&e)
	if !begun.IsZero() {
		h.cached(&hot.abortLatency, key{site, "txn", "abort_latency_us", ""}, hist).h.Observe(e.At.Sub(begun).Microseconds())
	}
}

// TxnGiveUp records a retry loop exhausting its attempts.
func (h *Hub) TxnGiveUp(site proto.SiteID, class proto.TxnClass, attempts int) {
	if h == nil {
		return
	}
	h.inc(key{site, "txn", "giveup", ""})
	h.emit(&Event{Type: EvTxnGiveUp, Site: site, Class: class, Attempt: attempts})
}

// SessionMismatch records a DM rejecting a request whose carried session
// number did not match the actual one.
func (h *Hub) SessionMismatch(site proto.SiteID, id proto.TxnID, carried, actual proto.Session) {
	if h == nil {
		return
	}
	h.inc(key{site, "dm", "session_mismatch", ""})
	h.emit(&Event{Type: EvSessionMismatch, Site: site, Txn: id, Expect: carried, Actual: actual})
}

// NotOperational records a DM rejecting a session-checked request while
// recovering (as[k] = 0).
func (h *Hub) NotOperational(site proto.SiteID, id proto.TxnID) {
	if h == nil {
		return
	}
	h.inc(key{site, "dm", "not_operational", ""})
	h.emit(&Event{Type: EvNotOperational, Site: site, Txn: id})
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
	h.emit(&Event{Type: EvSiteDownObserved, Site: observer, Peer: target, Expect: observed})
}

// Control1 records a committed type-1 control transaction with the new
// session number.
func (h *Hub) Control1(site proto.SiteID, session proto.Session) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type1_committed", ""})
	h.emit(&Event{Type: EvControl1, Site: site, Actual: session})
}

// Control1Fail records a failed type-1 attempt.
func (h *Hub) Control1Fail(site proto.SiteID, err error) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type1_failed", ""})
	h.emit(&Event{Type: EvControl1Fail, Site: site, Detail: AbortReason(err)})
}

// Control2 records a committed type-2 control transaction claiming the
// listed sites down.
func (h *Hub) Control2(site proto.SiteID, claimed []proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type2_committed", ""})
	h.emit(&Event{Type: EvControl2, Site: site, Detail: siteList(claimed)})
}

// Control2Skip records a type-2 claim found stale.
func (h *Hub) Control2Skip(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type2_skipped", ""})
	h.emit(&Event{Type: EvControl2Skip, Site: site})
}

// Control2Fail records a failed type-2 attempt.
func (h *Hub) Control2Fail(site proto.SiteID, err error) {
	if h == nil {
		return
	}
	h.inc(key{site, "session", "type2_failed", ""})
	h.emit(&Event{Type: EvControl2Fail, Site: site, Detail: AbortReason(err)})
}

// RecoveryStart records the §3.4 procedure beginning at site.
func (h *Hub) RecoveryStart(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "recovery", "started", ""})
	h.emit(&Event{Type: EvRecoveryStart, Site: site})
}

// RecoveryDone records the site becoming operational under session with
// marked copies left for the copiers.
func (h *Hub) RecoveryDone(site proto.SiteID, session proto.Session, marked int) {
	if h == nil {
		return
	}
	h.inc(key{site, "recovery", "completed", ""})
	h.lookup(key{site, "recovery", "marked", ""}, counter).v.Add(int64(marked))
	h.emit(&Event{Type: EvRecoveryDone, Site: site, Actual: session, Attempt: marked})
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

// LockWait records how long one queued lock request waited, whatever its
// outcome. Metrics only.
func (h *Hub) LockWait(site proto.SiteID, d time.Duration) {
	if h == nil {
		return
	}
	h.observe(key{site, "lock", "wait_us", ""}, d.Microseconds())
}

// LockWound counts a lock holder wounded by an older waiter. Metrics only.
func (h *Hub) LockWound(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "lock", "wounds", ""})
}

// CopierCopy records a copier transferring item's data from source.
func (h *Hub) CopierCopy(site proto.SiteID, item proto.Item, source proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "copier", "data_copy", ""})
	h.emit(&Event{Type: EvCopierCopy, Site: site, Item: item, Peer: source})
}

// CopierSkip records a copier clearing item's mark by version comparison.
func (h *Hub) CopierSkip(site proto.SiteID, item proto.Item, source proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "copier", "version_skip", ""})
	h.emit(&Event{Type: EvCopierSkip, Site: site, Item: item, Peer: source})
}

// CopierTotalFailure records an item with no readable copy anywhere.
func (h *Hub) CopierTotalFailure(site proto.SiteID, item proto.Item) {
	if h == nil {
		return
	}
	h.inc(key{site, "copier", "total_failure", ""})
	h.emit(&Event{Type: EvCopierTotalFailure, Site: site, Item: item})
}

// SiteCrash records a site fail-stopping. Together with RecoveryDone it
// bounds the site's unavailability window in exported traces.
func (h *Hub) SiteCrash(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "site", "crashes", ""})
	h.emit(&Event{Type: EvSiteCrash, Site: site})
}

// MsgSent counts a wire message leaving a site, by kind. Metrics only — no
// event is emitted, so wiring it into a transport never perturbs the
// byte-identical trace streams the deterministic harnesses compare.
func (h *Hub) MsgSent(from, to proto.SiteID, kind proto.Kind) {
	if h == nil {
		return
	}
	h.cached(&h.siteHot(from).sent[kind], key{from, "net", "sent", kind.String()}, counter).v.Add(1)
}

// PostExit says how posted requests left a site's outbox (Hub.PostsSent).
type PostExit uint8

// The ways out of an outbox.
const (
	// PostCarried: ahead of a later frame to the same peer, in its write.
	PostCarried PostExit = iota
	// PostAsked: at once, because the peer asked (Hub.AskSent at the peer).
	PostAsked
	// PostSwept: by the transport's sweep once the oldest waited its bound,
	// or by Close.
	PostSwept
)

var postExitNames = [...]string{PostCarried: "posts_carried", PostAsked: "posts_asked", PostSwept: "posts_swept"}

// PostsSent counts n posted requests leaving a site's outbox in one write,
// by how they left. Metrics only, like MsgSent, which already counted each
// of them when it was posted.
func (h *Hub) PostsSent(site proto.SiteID, n int, exit PostExit) {
	if h == nil {
		return
	}
	h.cached(&h.siteHot(site).posts[exit], key{site, "net", postExitNames[exit], ""}, counter).v.Add(int64(n))
}

// AskSent counts an ask leaving a site: a frame that makes its peer write
// its outbox to the site at once, sent because a lock request there queued.
// Metrics only.
func (h *Hub) AskSent(site proto.SiteID) {
	if h == nil {
		return
	}
	h.inc(key{site, "net", "asks_sent", ""})
}

// MsgDropped records the network losing a message of the given kind.
func (h *Hub) MsgDropped(from, to proto.SiteID, kind string) {
	if h == nil {
		return
	}
	h.inc(key{0, "net", "dropped", ""})
	h.emit(&Event{Type: EvMsgDropped, Site: from, Peer: to, Detail: kind})
}

// Partitioned records the network splitting into groups.
func (h *Hub) Partitioned(detail string) {
	if h == nil {
		return
	}
	h.inc(key{0, "net", "partitions", ""})
	h.emit(&Event{Type: EvPartition, Detail: detail})
}

// Healed records all partitions being removed.
func (h *Hub) Healed() {
	if h == nil {
		return
	}
	h.inc(key{0, "net", "heals", ""})
	h.emit(&Event{Type: EvHeal})
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
