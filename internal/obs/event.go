// Package obs is the protocol-level observability layer: a ring-buffer
// event tracer plus a table of per-site instruments behind one nil-safe Hub
// that the transaction, data, session, recovery, and network layers emit
// into, and that renders those instruments as text or Prometheus exposition.
//
// The hub is deliberately passive: a nil *Hub is a valid no-op sink with
// zero cost on the hot paths, so every Config in the repository can carry
// one without changing the behavior of code that does not ask for it.
// Events are stamped from an internal/clock Clock, which keeps traces
// deterministic under the virtual clock used by the simulator's tests.
package obs

import (
	"fmt"
	"strings"
	"time"

	"siterecovery/internal/proto"
)

// EventType enumerates the traced protocol moments. Each maps to a paper
// mechanism; see DESIGN.md §"Observability".
type EventType int

// Event types.
const (
	// EvTxnBegin: one transaction attempt started (any class).
	EvTxnBegin EventType = iota + 1
	// EvTxnCommit: an attempt committed. Attempt carries the 1-based retry
	// count that succeeded.
	EvTxnCommit
	// EvTxnAbort: an attempt aborted; Detail classifies the cause.
	EvTxnAbort
	// EvTxnGiveUp: the retry loop exhausted its attempts.
	EvTxnGiveUp
	// EvSessionMismatch: a DM rejected a physical request whose carried
	// session number (Expect) differed from the actual one (Actual) — the
	// §3.2 convention doing its job.
	EvSessionMismatch
	// EvNotOperational: a DM rejected a session-checked request while its
	// site was recovering (as[k] = 0).
	EvNotOperational
	// EvSiteDownObserved: a TM saw a physical operation fail with
	// ErrSiteDown; Peer is the site observed down, Expect the session its
	// view held (the precondition of a type-2 claim).
	EvSiteDownObserved
	// EvControl1: a type-1 control transaction committed; Actual is the new
	// session number.
	EvControl1
	// EvControl1Fail: a type-1 attempt failed (another site crashed, or no
	// operational peer).
	EvControl1Fail
	// EvControl2: a type-2 control transaction committed; Detail lists the
	// claimed sites.
	EvControl2
	// EvControl2Skip: a type-2 claim found stale (the site already down or
	// re-up under a new session) and committed nothing.
	EvControl2Skip
	// EvControl2Fail: a type-2 attempt failed.
	EvControl2Fail
	// EvRecoveryStart: the §3.4 procedure began at Site.
	EvRecoveryStart
	// EvRecoveryDone: the site is operational; Actual is the new session
	// number, Attempt the number of copies marked unreadable.
	EvRecoveryDone
	// EvCopierCopy: a copier transferred data for Item from Peer (§3.2).
	EvCopierCopy
	// EvCopierSkip: a copier found the copy current by version comparison
	// and cleared the mark without a transfer (§5).
	EvCopierSkip
	// EvCopierTotalFailure: no readable copy of Item exists at any
	// operational site.
	EvCopierTotalFailure
	// EvMsgDropped: the network lost a message; Peer is the destination,
	// Detail the message kind.
	EvMsgDropped
	// EvPartition: the network was split; Detail describes the groups.
	EvPartition
	// EvHeal: all partitions removed.
	EvHeal
	// EvSiteCrash: Site fail-stopped (detached from the network, volatile
	// state lost). Paired with EvRecoveryDone it bounds the site's
	// unavailability window, which is what the offline analysis measures.
	EvSiteCrash
	// EvSpanStart: one side of a cross-process RPC began. Span/Parent carry
	// the span graph, Txn the root transaction, Lamport the recording site's
	// high-water commit seq, and Detail the "side:kind" pair. Only the real
	// TCP transport emits span events — the deterministic simulator never
	// does, keeping netsim traces byte-identical per seed.
	EvSpanStart
	// EvSpanFinish: that side completed; Dur is the measured latency and a
	// failed call appends "!reason" to the detail.
	EvSpanFinish
)

// DetailSigkill on an EvSiteCrash marks a kill cut: a synthetic marker the
// process-level chaos harness appends where a SIGKILLed process's export
// stream was truncated. Trace invariants treat state open at that site as
// lost-with-the-process rather than as a protocol violation, and a restarted
// process's Lamport clock may legitimately restart after it.
const DetailSigkill = "sigkill"

// EventTypes returns every defined event type in declaration order. Exports
// and analysis tools iterate it so a newly added type cannot be silently
// missing from their mappings (the round-trip tests walk it too).
func EventTypes() []EventType {
	types := make([]EventType, 0, int(EvSpanFinish))
	for t := EvTxnBegin; t <= EvSpanFinish; t++ {
		types = append(types, t)
	}
	return types
}

// ParseEventType maps an EventType's String() form back to the type.
func ParseEventType(s string) (EventType, bool) {
	for _, t := range EventTypes() {
		if t.String() == s {
			return t, true
		}
	}
	return 0, false
}

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EvTxnBegin:
		return "txn.begin"
	case EvTxnCommit:
		return "txn.commit"
	case EvTxnAbort:
		return "txn.abort"
	case EvTxnGiveUp:
		return "txn.giveup"
	case EvSessionMismatch:
		return "dm.session-mismatch"
	case EvNotOperational:
		return "dm.not-operational"
	case EvSiteDownObserved:
		return "txn.site-down"
	case EvControl1:
		return "session.type1"
	case EvControl1Fail:
		return "session.type1-fail"
	case EvControl2:
		return "session.type2"
	case EvControl2Skip:
		return "session.type2-skip"
	case EvControl2Fail:
		return "session.type2-fail"
	case EvRecoveryStart:
		return "recovery.start"
	case EvRecoveryDone:
		return "recovery.done"
	case EvCopierCopy:
		return "copier.copy"
	case EvCopierSkip:
		return "copier.skip"
	case EvCopierTotalFailure:
		return "copier.total-failure"
	case EvMsgDropped:
		return "net.dropped"
	case EvPartition:
		return "net.partition"
	case EvHeal:
		return "net.heal"
	case EvSiteCrash:
		return "site.crash"
	case EvSpanStart:
		return "span.start"
	case EvSpanFinish:
		return "span.finish"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is one traced protocol moment. Only the fields relevant to the type
// are set; the zero values render as absent.
type Event struct {
	Seq   uint64    // assigned by the tracer, gapless per tracer
	At    time.Time // stamped from the hub's clock
	Type  EventType
	Site  proto.SiteID // emitting site (0 for cluster-wide events)
	Peer  proto.SiteID // counterpart site, when one exists
	Txn   proto.TxnID
	Class proto.TxnClass
	Item  proto.Item
	// Attempt is the 1-based attempt count for txn events, or a type-
	// specific small count (copies marked for EvRecoveryDone).
	Attempt int
	// Expect and Actual are session numbers for session-check events.
	Expect, Actual proto.Session
	// Detail is a short, deterministic annotation (abort cause, message
	// kind, claimed sites; "side:kind" for span events).
	Detail string
	// Span and Parent carry the distributed-tracing span graph for span
	// events: Span identifies the RPC (shared by its client and server
	// sides), Parent the span that caused it.
	Span, Parent uint64
	// Lamport is the emitting site's high-water Lamport commit sequence at
	// emission time (span events only).
	Lamport uint64
	// Dur is the measured latency of a finished span.
	Dur time.Duration
}

// format renders the event's payload without its sequence number or
// timestamp; the tracer's exporters prepend those.
func (e Event) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", e.Type)
	if e.Site != 0 {
		fmt.Fprintf(&b, " %v", e.Site)
	} else {
		b.WriteString(" cluster")
	}
	if e.Txn != 0 {
		fmt.Fprintf(&b, " %v", e.Txn)
	}
	if e.Class != 0 {
		fmt.Fprintf(&b, " class=%v", e.Class)
	}
	if e.Item != "" {
		fmt.Fprintf(&b, " item=%s", e.Item)
	}
	if e.Peer != 0 {
		fmt.Fprintf(&b, " peer=%v", e.Peer)
	}
	if e.Attempt != 0 {
		fmt.Fprintf(&b, " n=%d", e.Attempt)
	}
	if e.Expect != 0 || e.Actual != 0 {
		fmt.Fprintf(&b, " expect=%d actual=%d", e.Expect, e.Actual)
	}
	if e.Span != 0 {
		fmt.Fprintf(&b, " span=%x", e.Span)
	}
	if e.Parent != 0 {
		fmt.Fprintf(&b, " parent=%x", e.Parent)
	}
	if e.Lamport != 0 {
		fmt.Fprintf(&b, " lam=%d", e.Lamport)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%v", e.Dur)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s", e.Seq, e.format())
}
