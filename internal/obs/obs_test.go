package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/proto"
)

func TestTraceOrderingVirtualClock(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	h := NewHub(Options{Clock: vc})

	begun := h.TxnBegin(1, 7, proto.ClassUser, 1)
	vc.Advance(5 * time.Millisecond)
	h.SessionMismatch(2, 7, 1, 2)
	vc.Advance(10 * time.Millisecond)
	h.TxnAbort(1, 7, proto.ClassUser, 1, begun, proto.ErrSessionMismatch)

	events := h.Tracer().Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[0].Type != EvTxnBegin || events[1].Type != EvSessionMismatch || events[2].Type != EvTxnAbort {
		t.Fatalf("wrong order: %v %v %v", events[0].Type, events[1].Type, events[2].Type)
	}
	if got := events[1].At.Sub(events[0].At); got != 5*time.Millisecond {
		t.Errorf("virtual timestamp gap = %v, want 5ms", got)
	}

	// With Times enabled under a virtual clock the rendering is fully
	// deterministic, offsets included.
	var b strings.Builder
	if err := h.Tracer().WriteText(&b, TextOptions{Times: true}); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"#0           0s  txn.begin            site1 t7 class=user n=1\n" +
		"#1          5ms  dm.session-mismatch  site2 t7 expect=1 actual=2\n" +
		"#2         15ms  txn.abort            site1 t7 class=user n=1 (session-mismatch)\n"
	if b.String() != want {
		t.Errorf("trace rendering:\n got:\n%s want:\n%s", b.String(), want)
	}
}

func TestTracerWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.append(&Event{Type: EvTxnBegin, Site: proto.SiteID(i + 1)}, nil, nil)
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	events := tr.Events()
	for i, e := range events {
		if want := uint64(i + 2); e.Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	var b strings.Builder
	if err := tr.WriteText(&b, TextOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "2 earlier events dropped") {
		t.Errorf("missing dropped-events footer:\n%s", b.String())
	}
}

func TestNilHubIsNoop(t *testing.T) {
	var h *Hub

	// Every emit must be callable on a nil hub.
	begun := h.TxnBegin(1, 1, proto.ClassUser, 1)
	h.TxnCommit(1, 1, proto.ClassUser, 1, begun)
	h.TxnAbort(1, 1, proto.ClassUser, 1, begun, proto.ErrSiteDown)
	h.TxnGiveUp(1, proto.ClassUser, 3)
	h.SessionMismatch(1, 1, 1, 2)
	h.NotOperational(1, 1)
	h.SiteDownObserved(1, 2, 1)
	h.Control1(1, 2)
	h.Control1Fail(1, proto.ErrSiteDown)
	h.Control2(1, []proto.SiteID{2})
	h.Control2Skip(1)
	h.Control2Fail(1, proto.ErrSiteDown)
	h.RecoveryStart(1)
	h.RecoveryDone(1, 2, 5)
	h.CopierCopy(1, "x", 2)
	h.CopierSkip(1, "x", 2)
	h.CopierTotalFailure(1, "x")
	h.MsgDropped(1, 2, "read")
	h.Partitioned("[1]|[2]")
	h.Healed()
	h.SetLevel(1, "dm", "prepared", 3)
	if h.Tracer() != nil || h.Value(1, "dm", "prepared") != 0 {
		t.Error("nil hub accessors must return nil and zero")
	}
	var b strings.Builder
	if err := h.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil hub exposition = %q, %v; want empty", b.String(), err)
	}

	// The hot-path emits must not allocate on the nil path: they sit inside
	// every transaction attempt whether or not observability is on.
	err := proto.ErrSessionMismatch
	allocs := testing.AllocsPerRun(100, func() {
		begun := h.TxnBegin(1, 1, proto.ClassUser, 1)
		h.TxnCommit(1, 1, proto.ClassUser, 1, begun)
		h.TxnAbort(1, 1, proto.ClassUser, 1, begun, err)
		h.SessionMismatch(1, 1, 1, 2)
		h.SiteDownObserved(1, 2, 1)
	})
	if allocs != 0 {
		t.Errorf("nil-hub emits allocate %.1f times per run, want 0", allocs)
	}
}

func TestHubBumpsRegistry(t *testing.T) {
	h := NewHub(Options{})

	begun := h.TxnBegin(1, 1, proto.ClassUser, 1)
	h.TxnCommit(1, 1, proto.ClassUser, 2, begun)
	h.TxnAbort(1, 2, proto.ClassUser, 1, time.Time{}, proto.ErrSiteDown)
	h.SessionMismatch(3, 2, 1, 2)
	h.CopierCopy(2, "item-7", 4)
	h.MsgDropped(1, 2, "read")

	checks := []struct {
		site proto.SiteID
		sub  string
		name string
		want int64
	}{
		{1, "txn", "begin.user", 1},
		{1, "txn", "commit.user", 1},
		{1, "txn", "abort.site-down", 1},
		{3, "dm", "session_mismatch", 1},
		{2, "copier", "data_copy", 1},
		{0, "net", "dropped", 1},
	}
	for _, c := range checks {
		if got := h.Value(c.site, c.sub, c.name); got != c.want {
			t.Errorf("counter site%d/%s/%s = %d, want %d", c.site, c.sub, c.name, got, c.want)
		}
	}
	if got := h.lookup(key{1, "txn", "attempts", ""}, hist).h.Sum(); got != 2 {
		t.Errorf("attempts hist sum = %d, want 2 (the committed attempt count)", got)
	}
	if got := h.Tracer().Len(); got != 6 {
		t.Errorf("trace holds %d events, want 6", got)
	}
}

func TestAbortReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "none"},
		{proto.ErrSessionMismatch, "session-mismatch"},
		{fmt.Errorf("wrap: %w", proto.ErrLockTimeout), "lock-timeout"},
		{proto.ErrTotalFailure, "total-failure"},
		{proto.ErrSiteDown, "site-down"},
		{proto.ErrWounded, "wounded"},
		{proto.ErrAbortRequested, "requested"},
		{errors.New("boom"), "other"},
	}
	for _, c := range cases {
		if got := AbortReason(c.err); got != c.want {
			t.Errorf("AbortReason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
