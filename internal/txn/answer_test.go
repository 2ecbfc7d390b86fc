package txn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"siterecovery/internal/netsim"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/transport"
	"siterecovery/internal/wal"
)

// phases is the simulator with a coordinator's commit made visible in one
// sequence: each decision record its log forces ("decision T"), each
// request it sends, posts or serves at its own site ("commit->2", "post
// commit->3", "local abort") and each answer ("answer").
type phases struct {
	*netsim.Network
	seq []string
}

func (p *phases) Send(ctx context.Context, from, to proto.SiteID, msg proto.Message) transport.Pending {
	p.seq = append(p.seq, fmt.Sprintf("%s->%d", msg.Kind(), to))
	return p.Network.Send(ctx, from, to, msg)
}

func (p *phases) Post(ctx context.Context, from, to proto.SiteID, msg proto.Message) error {
	p.seq = append(p.seq, fmt.Sprintf("post %s->%d", msg.Kind(), to))
	return p.Network.Post(ctx, from, to, msg)
}

func (p *phases) Local(w transport.Waiter) transport.Pending {
	c := w.(*localCall)
	req := map[localOp]proto.Message{
		localRead: c.read, localBatch: c.batch, localCommit: c.commit, localAbort: c.abort,
	}[c.op]
	p.seq = append(p.seq, "local "+req.Kind())
	return p.Network.Local(w)
}

func (p *phases) Answer() { p.seq = append(p.seq, "answer") }

// index is where the first entry of p.seq with prefix is, or -1.
func (p *phases) index(prefix string) int {
	return slices.IndexFunc(p.seq, func(s string) bool { return len(s) >= len(prefix) && s[:len(prefix)] == prefix })
}

func (p *phases) count(entry string) int {
	n := 0
	for _, s := range p.seq {
		if s == entry {
			n++
		}
	}
	return n
}

// newPhases puts site 1's coordinator behind a phases recorder, its log's
// decision records included, and returns it with a context that carries it
// as the Answerer.
func newPhases(t *testing.T, h *harness) (*phases, context.Context) {
	t.Helper()
	p := &phases{Network: h.net}
	h.tms[1].cfg.Net = p
	h.dms[1].Log().SetSink(func(recs []wal.Record) {
		for _, r := range recs {
			if r.Type == wal.RecordCommit && r.Role == wal.RoleCoordinator {
				p.seq = append(p.seq, fmt.Sprintf("decision %d", r.Txn))
			}
		}
	})
	return p, WithAnswer(context.Background(), p)
}

// TestAnswerAtTheCommitPoint: a writing transaction is answered once, after
// its decision record and before any decision leaves for a participant, the
// coordinator's own included; a read-only one once, after its reads and
// before its shared locks are released.
func TestAnswerAtTheCommitPoint(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	p, ctx := newPhases(t, h)

	var id proto.TxnID
	err := h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		id = tx.ID()
		return tx.Write(ctx, "x", 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := p.count("answer"); n != 1 {
		t.Fatalf("answered %d times, want once: %v", n, p.seq)
	}
	decided, answered := p.index(fmt.Sprintf("decision %d", id)), p.index("answer")
	if decided < 0 || answered != decided+1 {
		t.Fatalf("sequence %v: want the answer right after decision %d", p.seq, id)
	}
	if rest := p.seq[answered+1:]; !slices.Equal(rest, []string{"local commit", "post commit->2", "post commit->3"}) {
		t.Fatalf("after the answer %v, want phase two: the local commit and two posts, in target order", rest)
	}

	p.seq = nil
	err = h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		_, err := tx.Read(ctx, "x")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The read is a direct call on the own site's data manager, which
	// shows in no sequence: what follows it is the answer, then the release.
	if !slices.Equal(p.seq, []string{"answer", "local abort"}) {
		t.Fatalf("read-only sequence %v: want one answer, then the read-only release", p.seq)
	}
	for site, d := range h.dms {
		if v, _, _ := d.Store().Committed("x"); v != 7 || d.Prepared() != 0 {
			t.Fatalf("site %v: x = %d with %d prepared, want 7 installed", site, v, d.Prepared())
		}
	}
}

// TestNoAnswerForAttemptsThatDoNotCommit: an aborted transaction is never
// answered, and a retried one only on the attempt that commits, after that
// attempt's decision — never for the attempt a participant voted down.
func TestNoAnswerForAttemptsThatDoNotCommit(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	p, ctx := newPhases(t, h)

	err := h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		if err := tx.Write(ctx, "x", 1); err != nil {
			return err
		}
		return proto.ErrAbortRequested
	})
	if !errors.Is(err, proto.ErrAbortRequested) {
		t.Fatalf("err = %v, want ErrAbortRequested", err)
	}
	if n := p.count("answer"); n != 0 {
		t.Fatalf("an aborted transaction was answered %d times: %v", n, p.seq)
	}

	// Site 2 votes the first flush down.
	inner := h.dms[2].Handle
	refused := false
	h.net.Register(2, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if _, ok := proto.As[proto.BatchReq](msg); ok && !refused {
			refused = true
			return proto.BatchResp{Vote: false}, nil
		}
		return inner(ctx, from, msg)
	})
	p.seq = nil
	var ids []proto.TxnID
	err = h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		ids = append(ids, tx.ID())
		return tx.Write(ctx, "x", 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ran %d attempts, want the voted-down one and a retry", len(ids))
	}
	if n := p.count("answer"); n != 1 {
		t.Fatalf("a retried transaction was answered %d times, want once: %v", n, p.seq)
	}
	if p.index(fmt.Sprintf("decision %d", ids[0])) >= 0 {
		t.Fatalf("sequence %v: the voted-down attempt %d was decided", p.seq, ids[0])
	}
	if decided := p.index(fmt.Sprintf("decision %d", ids[1])); decided < 0 || p.index("answer") != decided+1 {
		t.Fatalf("sequence %v: want the one answer right after the retry's decision", p.seq)
	}
}

// TestNestedTransactionIsNotAnswered: a control transaction the body runs on
// its own context commits first, and is not answered; the transaction
// around it is, once, at its own decision.
func TestNestedTransactionIsNotAnswered(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	p, ctx := newPhases(t, h)

	var outer, nested proto.TxnID
	err := h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		outer = tx.ID()
		err := h.tms[1].RunClass(ctx, proto.ClassControl2, func(ctx context.Context, ctl *Tx) error {
			nested = ctl.ID()
			return ctl.RawWrite([]proto.SiteID{1, 2, 3}, "y", 5)
		})
		if err != nil {
			return err
		}
		return tx.Write(ctx, "x", 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.index(fmt.Sprintf("decision %d", nested)) < 0 {
		t.Fatalf("sequence %v: the nested transaction %d never decided", p.seq, nested)
	}
	if n := p.count("answer"); n != 1 {
		t.Fatalf("answered %d times, want once, for the outer transaction: %v", n, p.seq)
	}
	if decided := p.index(fmt.Sprintf("decision %d", outer)); decided < 0 || p.index("answer") != decided+1 {
		t.Fatalf("sequence %v: want the one answer right after the outer decision %d", p.seq, outer)
	}
}

// TestOwnTxIsEveryAttempts: under WithOwnTx every attempt of a transaction
// runs in the given Tx — a retried one too, each from a clean slate — while
// a transaction its body starts gets a Tx of its own, and the committed
// write lands.
func TestOwnTxIsEveryAttempts(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	own := new(Tx)
	ctx := WithOwnTx(context.Background(), own)
	var ids []proto.TxnID
	err := h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		ids = append(ids, tx.ID())
		if tx != own {
			return fmt.Errorf("attempt %d runs in another Tx than the own one", len(ids))
		}
		if _, ok := tx.written("x"); ok {
			return fmt.Errorf("attempt %d starts with the last one's write set", len(ids))
		}
		if err := tx.Write(ctx, "x", proto.Value(len(ids))); err != nil {
			return err
		}
		err := h.tms[1].Run(ctx, func(ctx context.Context, nested *Tx) error {
			if nested == own {
				return errors.New("a nested transaction runs in the own Tx")
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(ids) == 1 {
			return fmt.Errorf("first attempt: %w", proto.ErrWounded) // retried
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("attempts %v, want two with distinct IDs", ids)
	}
	if !errors.Is(second(own.Read(ctx, "x")), proto.ErrTxnFinished) {
		t.Fatal("the own Tx is not finished after Run")
	}
	v, _, err := h.dms[2].Store().Committed("x")
	if err != nil || v != 2 {
		t.Fatalf("x at site 2 = %v, %v; want the second attempt's 2", v, err)
	}
}
