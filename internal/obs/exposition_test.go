package obs

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/proto"
)

// goldenHub drives a fixed script through every exported emit on a virtual
// clock, into a ring small enough to drop events.
func goldenHub() *Hub {
	vc := clock.NewVirtual(time.Unix(0, 0))
	h := NewHub(Options{Clock: vc, TraceCapacity: 16})
	step := func(d time.Duration) { vc.Advance(d) }

	// Two classes commit, two abort reasons, one give-up.
	h.TxnBegin(1, 1, proto.ClassUser, 1)
	step(300 * time.Microsecond)
	h.TxnCommit(1, 1, proto.ClassUser, 1)
	h.TxnBegin(1, 2, proto.ClassCopier, 1)
	step(1200 * time.Microsecond)
	h.TxnCommit(1, 2, proto.ClassCopier, 1)
	h.TxnBegin(2, 3, proto.ClassUser, 1)
	step(40 * time.Microsecond)
	h.TxnAbort(2, 3, proto.ClassUser, 1, proto.ErrSiteDown)
	h.TxnBegin(2, 3, proto.ClassUser, 2)
	step(150 * time.Millisecond)
	h.TxnAbort(2, 3, proto.ClassUser, 2, proto.ErrLockTimeout)
	h.TxnBegin(2, 3, proto.ClassUser, 3)
	step(90 * time.Microsecond)
	h.TxnCommit(2, 3, proto.ClassUser, 3)
	h.TxnGiveUp(1, proto.ClassUser, 2)

	// Session, recovery, lock, copier, site and net emits.
	h.SessionMismatch(3, 4, 1, 2)
	h.NotOperational(3, 5)
	h.InstallError(2)
	h.SiteDownObserved(1, 3, 1)
	h.Control1(3, 2)
	h.Control1Fail(3, proto.ErrNoQuorum)
	h.Control2(1, []proto.SiteID{3, 2})
	h.Control2Skip(1)
	h.Control2Fail(2, proto.ErrSiteDown)
	h.RecoveryStart(3)
	h.RecoveryDone(3, 2, 4)
	h.InDoubt(3, "committed")
	h.InDoubt(3, "aborted")
	h.InDoubt(3, "unresolved")
	h.Forced(2, "commit")
	h.Forced(2, "abort")
	h.LockWait(2, 40*time.Microsecond)
	h.LockWait(2, 1500*time.Microsecond)
	h.LockWound(2)
	h.CopierCopy(3, "x", 1)
	h.CopierCopy(3, "y", 2)
	h.CopierSkip(3, "z", 1)
	h.CopierTotalFailure(3, "w")
	h.SiteCrash(3)
	h.MsgDropped(1, 2, "read")
	h.Partitioned("[1 2]|[3]")
	h.Healed()

	// Wire messages and every span side, with and without an error. The
	// single 3019 µs sample's bucket bound lies above it, so its quantiles
	// clamp to the observed max.
	h.MsgSent(1, 2, "prepare")
	h.MsgSent(1, 3, "prepare")
	h.MsgSent(2, 1, "commit")
	sc := SpanContext{Root: 9, Span: 0x1000000000001, Parent: 3, Origin: 1}
	h.SpanStart(1, 2, sc, SideClient, "prepare", 10)
	h.SpanStart(2, 1, sc, SideServer, "prepare", 10)
	h.SpanFinish(2, 1, sc, SideServer, "prepare", 11, 180*time.Microsecond, nil)
	h.SpanFinish(1, 2, sc, SideClient, "prepare", 11, 3019*time.Microsecond, nil)
	h.SpanStart(1, 3, sc, SidePost, "commit", 12)
	h.SpanFinish(1, 3, sc, SidePost, "commit", 12, 20*time.Microsecond, errors.New("wrap: "+proto.ErrSiteDown.Error()))
	h.SpanStart(1, 2, sc, SideClient, "commit", 12)
	h.SpanFinish(1, 2, sc, SideClient, "commit", 13, 75*time.Microsecond, proto.ErrSiteDown)

	// One level at a site, one at cluster scope.
	h.SetLevel(3, "dm", "prepared", 2)
	h.SetLevel(0, "go", "goroutines", 17)
	return h
}

// TestExpositionGolden pins every byte both renderers write for the script
// above: family names, labels, sort order, kinds and histogram summaries.
func TestExpositionGolden(t *testing.T) {
	h := goldenHub()
	if h.Tracer().Dropped() == 0 {
		t.Fatal("the script no longer overflows the ring")
	}
	for _, c := range []struct {
		file   string
		render func(io.Writer) error
	}{
		{"testdata/exposition.prom", h.WritePrometheus},
		{"testdata/exposition.txt", h.WriteText},
	} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := c.render(&b); err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s differs:\n got:\n%s want:\n%s", c.file, got, want)
		}
	}
}
