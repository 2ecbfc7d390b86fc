package txn

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/dm"
	"siterecovery/internal/history"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/netsim"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/storage"
	"siterecovery/internal/transport"
	"siterecovery/internal/wal"
)

// harness is a minimal three-site assembly for TM tests (the full assembly
// lives in internal/core; this one wires only what the TM needs).
type harness struct {
	net   *netsim.Network
	cat   *replication.Catalog
	seq   *Sequencer
	rec   *history.Recorder
	dms   map[proto.SiteID]*dm.Manager
	tms   map[proto.SiteID]*Manager
	locks map[proto.SiteID]*lockmgr.Manager
	hub   *obs.Hub
}

func newHarness(t *testing.T, profile replication.Profile, cb Callbacks) *harness {
	t.Helper()
	sites := []proto.SiteID{1, 2, 3}
	placement := map[proto.Item][]proto.SiteID{
		"x": {1, 2, 3},
		"y": {1, 2, 3},
		"z": {1, 2},
	}
	cat, err := replication.NewCatalog(sites, placement)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(netsim.Config{})
	rec := history.NewRecorder()
	rec.RegisterTxn(InitialTxn, proto.ClassInitial)
	rec.Commit(InitialTxn, 0)
	seq := NewSequencer()

	h := &harness{
		net: net, cat: cat, seq: seq, rec: rec,
		dms:   make(map[proto.SiteID]*dm.Manager),
		tms:   make(map[proto.SiteID]*Manager),
		locks: make(map[proto.SiteID]*lockmgr.Manager),
		hub:   obs.NewHub(obs.Options{}),
	}
	for _, site := range sites {
		var items []proto.Item
		items = append(items, cat.ItemsAt(site)...)
		for _, s := range sites {
			items = append(items, proto.NSItem(s))
		}
		st := storage.NewMem(site, items, InitialTxn)
		for _, s := range sites {
			if err := st.Seed(proto.NSItem(s), 1); err != nil {
				t.Fatal(err)
			}
		}
		locks := lockmgr.New(lockmgr.Config{Timeout: 150 * time.Millisecond})
		d := dm.New(dm.Config{
			Site: site, Store: st, Locks: locks, Log: wal.New(),
			Recorder: rec, Tracking: dm.TrackMissingList,
		}, dm.Callbacks{})
		d.SetSession(1)
		h.dms[site] = d
		h.locks[site] = locks
		net.Register(site, d.Handle)
		h.tms[site] = New(Config{
			Site: site, Net: net, Local: d, Catalog: cat, Profile: profile,
			Recorder: rec, Seq: seq, MaxAttempts: 6, Obs: h.hub,
		}, cb)
	}
	return h
}

func (h *harness) crash(site proto.SiteID) {
	h.dms[site].Crash()
	h.net.SetDown(site, true)
}

// markDown seeds the nominal session vector everywhere to say site is down
// (as a committed type-2 control transaction would have).
func (h *harness) markDown(t *testing.T, site proto.SiteID) {
	t.Helper()
	for _, d := range h.dms {
		if err := d.Store().Seed(proto.NSItem(site), proto.Value(proto.NoSession)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestROWAAReadWriteCommit(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	ctx := context.Background()

	err := h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 0 {
			t.Errorf("initial x = %d", v)
		}
		return tx.Write(ctx, "x", 42)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// The write reached every replica.
	for _, site := range []proto.SiteID{1, 2, 3} {
		v, _, err := h.dms[site].Store().Committed("x")
		if err != nil || v != 42 {
			t.Errorf("site %v x = (%d, %v)", site, v, err)
		}
	}

	// Another site reads it back.
	err = h.tms[2].Run(ctx, func(ctx context.Context, tx *Tx) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 42 {
			t.Errorf("read back x = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read-back Run: %v", err)
	}

	if ok, cycle := h.rec.Snapshot().CertifyOneSR(history.DomainDB); !ok {
		t.Fatalf("history not 1-SR: %v", cycle)
	}
}

func TestReadYourWritesAndRepeatableRead(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		if err := tx.Write(ctx, "x", 7); err != nil {
			return err
		}
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 7 {
			t.Errorf("read-your-writes x = %d", v)
		}
		v1, err := tx.Read(ctx, "y")
		if err != nil {
			return err
		}
		v2, err := tx.Read(ctx, "y")
		if err != nil {
			return err
		}
		if v1 != v2 {
			t.Errorf("repeatable read: %d != %d", v1, v2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A long transaction's cache outgrows the attempt's inline room; every
	// read stays cached when it moves.
	var tx Tx
	tx.reads = tx.inline.reads[:0]
	const reads = 3 * inlineReads
	for i := 0; i < reads; i++ {
		tx.cacheRead(proto.Item(fmt.Sprint(i)), proto.Value(i))
	}
	for i := 0; i < reads; i++ {
		if v, ok := tx.cachedRead(proto.Item(fmt.Sprint(i))); !ok || v != proto.Value(i) {
			t.Errorf("cached read of %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := tx.cachedRead("absent"); ok {
		t.Error("the cache answered for an item never read")
	}
}

func TestROWAAWriteSkipsNominallyDownSite(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	h.crash(3)
	h.markDown(t, 3)

	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		if !tx.View().Up(1) || tx.View().Up(3) {
			t.Errorf("view wrong: %+v", tx.View())
		}
		return tx.Write(ctx, "x", 9)
	})
	if err != nil {
		t.Fatalf("Run with down site: %v", err)
	}

	for _, site := range []proto.SiteID{1, 2} {
		if v, _, _ := h.dms[site].Store().Committed("x"); v != 9 {
			t.Errorf("site %v x = %d", site, v)
		}
	}
	// Missed-update bookkeeping recorded the down site.
	for _, site := range []proto.SiteID{1, 2} {
		got := h.dms[site].MissedFor(3)
		if len(got) != 1 || got[0] != "x" {
			t.Errorf("site %v MissedFor(3) = %v", site, got)
		}
	}
}

func TestROWAAWriteToActuallyDownSiteAborts(t *testing.T) {
	var mu sync.Mutex
	var detected []proto.SiteID
	h := newHarness(t, replication.ROWAA, Callbacks{
		OnSiteDown: func(site proto.SiteID, observed proto.Session) {
			mu.Lock()
			detected = append(detected, site)
			mu.Unlock()
			if observed != 1 {
				t.Errorf("observed session = %d, want 1", observed)
			}
		},
	})
	h.crash(3) // down, but still nominally up in NS

	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		return tx.Write(ctx, "x", 9)
	})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(detected) == 0 || detected[0] != 3 {
		t.Fatalf("failure detector calls = %v", detected)
	}
}

func TestSessionMismatchAborts(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	// Site 2's actual session moves on, but the NS copies still say 1.
	h.dms[2].SetSession(7)

	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		return tx.Write(ctx, "x", 1)
	})
	if !errors.Is(err, proto.ErrSessionMismatch) {
		t.Fatalf("err = %v, want ErrSessionMismatch", err)
	}
}

func TestROWAWriteUnavailableWhenAnyReplicaDown(t *testing.T) {
	h := newHarness(t, replication.ROWA, Callbacks{})
	h.crash(3)

	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		return tx.Write(ctx, "x", 9)
	})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("strict ROWA write err = %v, want ErrSiteDown", err)
	}

	// But z lives only at sites 1,2 and stays writable.
	err = h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		return tx.Write(ctx, "z", 5)
	})
	if err != nil {
		t.Fatalf("ROWA write to unaffected item: %v", err)
	}
}

func TestNaiveWriteSucceedsDespiteDownReplica(t *testing.T) {
	h := newHarness(t, replication.Naive, Callbacks{})
	h.crash(3)

	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		return tx.Write(ctx, "x", 9)
	})
	if err != nil {
		t.Fatalf("naive write: %v", err)
	}
	if v, _, _ := h.dms[1].Store().Committed("x"); v != 9 {
		t.Fatal("naive write did not land at up sites")
	}
}

func TestQuorumReadWrite(t *testing.T) {
	h := newHarness(t, replication.Quorum, Callbacks{})
	ctx := context.Background()

	if err := h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		return tx.Write(ctx, "x", 30)
	}); err != nil {
		t.Fatalf("quorum write: %v", err)
	}

	h.crash(3)
	// Majority still reachable: read must see the newest version.
	err := h.tms[2].Run(ctx, func(ctx context.Context, tx *Tx) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 30 {
			t.Errorf("quorum read = %d", v)
		}
		return tx.Write(ctx, "x", 31)
	})
	if err != nil {
		t.Fatalf("quorum after crash: %v", err)
	}

	h.crash(2)
	// Only one replica left: no quorum.
	err = h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error {
		_, err := tx.Read(ctx, "x")
		return err
	})
	if !errors.Is(err, proto.ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestReadOnlyTransactionSkips2PC(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	before := h.dms[1].Log().DurableLSN()
	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		_, err := tx.Read(ctx, "x")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := h.dms[1].Log().DurableLSN(); after != before {
		t.Fatalf("read-only txn wrote %d log records", after-before)
	}
	// Locks are gone: a writer proceeds immediately.
	if err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		return tx.Write(ctx, "x", 1)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRequestedNotRetried(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	calls := 0
	err := h.tms[1].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
		calls++
		return proto.ErrAbortRequested
	})
	if !errors.Is(err, proto.ErrAbortRequested) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("body ran %d times, want 1", calls)
	}
	if c, a := h.hub.Value(1, "txn", "commit.user"), h.hub.Value(1, "txn", "abort.requested"); c != 0 || a != 1 {
		t.Fatalf("txn/commit.user = %d, txn/abort.requested = %d; want 0 and 1", c, a)
	}
	// The give-up reports the one attempt made, not MaxAttempts.
	evs := h.hub.Tracer().Events()
	if last := evs[len(evs)-1]; last.Type != obs.EvTxnGiveUp || last.Attempt != 1 {
		t.Fatalf("last event = %v, want a give-up after attempt 1", last)
	}
}

func TestConcurrentIncrementsAreSerializable(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	const (
		workers = 4
		rounds  = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		site := proto.SiteID(w%3 + 1)
		go func() {
			defer wg.Done()
			for range rounds {
				err := h.tms[site].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
					v, err := tx.Read(ctx, "x")
					if err != nil {
						return err
					}
					return tx.Write(ctx, "x", v+1)
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("increment worker: %v", err)
	}

	for _, site := range []proto.SiteID{1, 2, 3} {
		v, _, _ := h.dms[site].Store().Committed("x")
		if v != workers*rounds {
			t.Errorf("site %v x = %d, want %d", site, v, workers*rounds)
		}
	}
	h1 := h.rec.Snapshot()
	if !h1.ConflictGraph(history.DomainAll).Acyclic() {
		t.Fatal("conflict graph cyclic: concurrency control broken")
	}
	if ok, cycle := h1.CertifyOneSR(history.DomainDB); !ok {
		t.Fatalf("history not 1-SR: %v", cycle)
	}
}

func TestSequencer(t *testing.T) {
	s := NewSequencer()
	first := s.NextTxn()
	if first != 2 {
		t.Fatalf("first txn ID = %v, want 2 (1 reserved for initial)", first)
	}
	if s.NextTxn() <= first {
		t.Fatal("txn IDs not increasing")
	}
	if s.NextCommitSeq() != 1 || s.NextCommitSeq() != 2 {
		t.Fatal("commit seq not sequential")
	}
}

// TestSequencerEpochs pins the anti-aliasing contract SeedTxnIDs exists
// for: a respawned process (same site, next incarnation epoch) must never
// re-allocate a transaction ID its dead incarnation handed out, or a
// peer still holding the dead transaction's prepare in doubt would merge
// the new transaction's writes into it. Epoch 0 must not disturb the
// first life's IDs.
func TestSequencerEpochs(t *testing.T) {
	gen0 := NewStridedSequencer(1, 3)
	plain := NewStridedSequencer(1, 3)
	gen0.SeedTxnIDs(0)
	if a, b := gen0.NextTxn(), plain.NextTxn(); a != b {
		t.Fatalf("epoch 0 changed the first txn ID: %v != %v", a, b)
	}

	used := map[proto.TxnID]bool{}
	for range 1000 {
		used[gen0.NextTxn()] = true
	}
	gen1 := NewStridedSequencer(1, 3)
	gen1.SeedTxnIDs(1)
	for range 1000 {
		id := gen1.NextTxn()
		if used[id] {
			t.Fatalf("incarnation 1 re-allocated incarnation 0's txn ID %v", id)
		}
		if uint64(id)%3 != 0 {
			t.Fatalf("txn ID %v left site 1's residue class", id)
		}
	}
}

func TestStridedSequencerObserveLamport(t *testing.T) {
	// Sites 1 and 3 of a 3-site cluster draw commit sequence numbers from
	// disjoint residue classes, so without observation their counters carry
	// no cross-coordinator order.
	s1 := NewStridedSequencer(1, 3)
	s3 := NewStridedSequencer(3, 3)

	var ahead uint64
	for range 5 {
		ahead = s3.NextCommitSeq()
	}
	if s3.HighCommitSeq() != ahead {
		t.Fatalf("high = %d, want last generated %d", s3.HighCommitSeq(), ahead)
	}

	// Site 1 learns site 3's number (prepare ack, commit message, version on
	// a read): everything it generates afterwards must sort above it.
	s1.ObserveCommitSeq(ahead)
	if s1.HighCommitSeq() < ahead {
		t.Fatalf("high = %d after observing %d", s1.HighCommitSeq(), ahead)
	}
	next := s1.NextCommitSeq()
	if next <= ahead {
		t.Fatalf("after observing %d, next commit seq = %d, want above", ahead, next)
	}
	if next%3 != 0 {
		t.Fatalf("commit seq %d left site 1's residue class", next)
	}

	// Observing an old number never pushes the counter backwards.
	s1.ObserveCommitSeq(1)
	if got := s1.NextCommitSeq(); got <= next {
		t.Fatalf("after observing stale 1, next commit seq = %d, want above %d", got, next)
	}
}

// lossyPosts is the simulator with phase two made visible: it records what
// is posted, what is sent and each request the coordinator serves at its own
// site ("local batch"), and — when losing — drops every posted message on the
// floor, as a connection dying under a written frame would.
type lossyPosts struct {
	*netsim.Network
	losing        bool
	posted, acked []string
}

func (n *lossyPosts) Send(ctx context.Context, from, to proto.SiteID, msg proto.Message) transport.Pending {
	n.acked = append(n.acked, fmt.Sprintf("%s->%d", msg.Kind(), to))
	return n.Network.Send(ctx, from, to, msg)
}

func (n *lossyPosts) Local(w transport.Waiter) transport.Pending {
	c := w.(*localCall)
	req := map[localOp]proto.Message{
		localRead: c.read, localBatch: c.batch, localCommit: c.commit, localAbort: c.abort,
	}[c.op]
	n.acked = append(n.acked, "local "+req.Kind())
	return n.Network.Local(w)
}

func (n *lossyPosts) Post(ctx context.Context, from, to proto.SiteID, msg proto.Message) error {
	n.posted = append(n.posted, fmt.Sprintf("%s->%d", msg.Kind(), to))
	if n.losing {
		return nil
	}
	return n.Network.Post(ctx, from, to, msg)
}

// TestCommitReturnsAtTheDecision pins phase two: the decision goes to the
// remote participants as posts — nothing else is ever posted — and to the
// local one as a direct call, and Commit succeeds on the logged
// decision alone. With every post lost the remote participants stay
// prepared, holding the write, and commit when the decision service tells
// them the outcome the coordinator logged.
func TestCommitReturnsAtTheDecision(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	net := &lossyPosts{Network: h.net}
	h.tms[1].cfg.Net = net
	ctx := context.Background()
	write := func(v proto.Value) {
		t.Helper()
		if err := h.tms[1].Run(ctx, func(ctx context.Context, tx *Tx) error { return tx.Write(ctx, "x", v) }); err != nil {
			t.Fatalf("write x=%d: %v", v, err)
		}
	}

	write(7)
	if want := []string{"commit->2", "commit->3"}; !reflect.DeepEqual(net.posted, want) {
		t.Fatalf("posted %v, want %v", net.posted, want)
	}
	if got := net.acked[len(net.acked)-4:]; !reflect.DeepEqual(got, []string{"local batch", "batch->2", "batch->3", "local commit"}) {
		t.Fatalf("acknowledged requests end %v, want the three batches and the local commit", got)
	}
	for site, d := range h.dms {
		if v, _, _ := d.Store().Committed("x"); v != 7 || d.Prepared() != 0 {
			t.Fatalf("site %v: x = %d with %d prepared, want 7 installed", site, v, d.Prepared())
		}
	}

	net.losing, net.posted = true, nil
	write(8)
	if v, _, _ := h.dms[1].Store().Committed("x"); v != 8 {
		t.Fatalf("coordinator's own copy = %d, want 8", v)
	}
	for _, site := range []proto.SiteID{2, 3} {
		d := h.dms[site]
		if v, _, _ := d.Store().Committed("x"); v != 7 || d.Prepared() != 1 {
			t.Fatalf("site %v: x = %d with %d prepared, want the old 7 and the write still prepared", site, v, d.Prepared())
		}
		// What the janitor does: ask the coordinator, apply its answer.
		st := d.StaleTxns(0)
		if len(st) != 1 || !st[0].Prepared {
			t.Fatalf("site %v: StaleTxns = %+v, want the one prepared write", site, st)
		}
		id := st[0].Meta.ID
		resp, err := h.net.Call(ctx, site, 1, proto.DecisionReq{Txn: id})
		if err != nil {
			t.Fatal(err)
		}
		dr := resp.(proto.DecisionResp)
		if dr.State != proto.StateCommitted {
			t.Fatalf("coordinator's answer for %v = %+v, want committed", id, dr)
		}
		if err := d.ForceCommit(id, dr.CommitSeq); err != nil {
			t.Fatal(err)
		}
		if v, _, _ := d.Store().Committed("x"); v != 8 || d.Prepared() != 0 {
			t.Fatalf("site %v after the decision query: x = %d with %d prepared, want 8", site, v, d.Prepared())
		}
	}
}

// TestSequentialPrepareHaltsOnNoVote pins the short-circuit: where votes are
// in when their sends return (the simulator), a participant's no-vote stops
// the prepare fan-out before any later participant is prepared, keeping the
// per-seed message stream identical to a loop of calls.
func TestSequentialPrepareHaltsOnNoVote(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	batches3 := 0
	inner3 := h.dms[3].Handle
	h.net.Register(3, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if _, ok := proto.As[proto.BatchReq](msg); ok {
			batches3++
		}
		return inner3(ctx, from, msg)
	})
	// Site 2 votes no, as a participant whose transaction was wounded does.
	inner2 := h.dms[2].Handle
	h.net.Register(2, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		resp, err := inner2(ctx, from, msg)
		if br, ok := proto.As[proto.BatchResp](resp); ok {
			br.Vote = false
			resp = br
		}
		return resp, err
	})

	ctx := context.Background()
	// A control transaction's raw writes go out in Commit's one prepare
	// round, like a user transaction's write set.
	tx, err := h.tms[1].begin(ctx, proto.ClassControl2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.RawWrite([]proto.SiteID{1, 2, 3}, "x", 7); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit(ctx)
	if !errors.Is(err, proto.ErrTxnAborted) {
		t.Fatalf("Commit err = %v, want ErrTxnAborted (no-vote)", err)
	}
	if batches3 != 0 {
		t.Fatalf("site 3 received %d BatchReqs after site 2 voted no; the fan-out must halt", batches3)
	}
}

// TestReversedWriteOrdersTakeLocksInOneOrder pins the canonical lock order:
// two coordinators writing {x,y} and {y,x} must ask a participant for its X
// locks in the same (item) order, so under PolicyTimeout they queue behind
// one another instead of deadlocking inside the site until a lock wait times
// out. Site 1's handler holds each flush until both have arrived, so the two
// write sets do run against its lock table at the same time.
func TestReversedWriteOrdersTakeLocksInOneOrder(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	var (
		mu       sync.Mutex
		unsorted [][]proto.BatchOp
		arrived  = make(chan struct{}, 2)
		both     = make(chan struct{})
	)
	inner := h.dms[1].Handle
	h.net.Register(1, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if br, ok := proto.As[proto.BatchReq](msg); ok {
			if !sort.SliceIsSorted(br.Ops, func(i, j int) bool { return br.Ops[i].Item < br.Ops[j].Item }) {
				mu.Lock()
				unsorted = append(unsorted, br.Ops)
				mu.Unlock()
			}
			arrived <- struct{}{}
			<-both
		}
		return inner(ctx, from, msg)
	})
	go func() {
		<-arrived
		<-arrived
		close(both)
	}()

	orders := map[proto.SiteID][]proto.Item{2: {"x", "y"}, 3: {"y", "x"}}
	var wg sync.WaitGroup
	errs := make(chan error, len(orders))
	for site, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- h.tms[site].Run(context.Background(), func(ctx context.Context, tx *Tx) error {
				for _, item := range order {
					if err := tx.Write(ctx, item, proto.Value(site)); err != nil {
						return err
					}
				}
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("reversed-order writer failed: %v", err)
		}
	}
	if len(unsorted) != 0 {
		t.Fatalf("site 1 received batches with ops out of item order: %v", unsorted)
	}
	for site := range orders {
		if begun, timeouts := h.hub.Value(site, "txn", "begin.user"), h.hub.Value(site, "txn", "abort.lock-timeout"); begun != 1 || timeouts != 0 {
			t.Fatalf("coordinator %v began %d attempts and lost %d to a lock timeout, want 1 and 0", site, begun, timeouts)
		}
	}
}

// TestWriteErrorsSurfaceByWhoCanKnow pins when a failed logical write is
// reported: placement is decided from the catalog and the view the attempt
// already holds, so those errors come back from Write; anything only a peer
// can say (here, a session mismatch) comes back from Commit, because no
// message leaves the coordinator before the flush.
func TestWriteErrorsSurfaceByWhoCanKnow(t *testing.T) {
	h := newHarness(t, replication.ROWAA, Callbacks{})
	ctx := context.Background()

	tx, err := h.tms[1].begin(ctx, proto.ClassUser, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ctx, "nope", 1); err == nil {
		t.Fatal("Write of an item the catalog does not know succeeded")
	}
	tx.Abort(ctx)

	// z lives at sites 1 and 2 only; with both nominally down there is no
	// copy to write.
	h.markDown(t, 1)
	h.markDown(t, 2)
	tx, err = h.tms[3].begin(ctx, proto.ClassUser, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ctx, "z", 1); !errors.Is(err, proto.ErrNoReplica) {
		t.Fatalf("Write with every replica nominally down: err = %v, want ErrNoReplica", err)
	}
	tx.Abort(ctx)

	h = newHarness(t, replication.ROWAA, Callbacks{})
	h.dms[2].SetSession(7) // site 2 moved on; the NS copies still say 1
	tx, err = h.tms[1].begin(ctx, proto.ClassUser, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ctx, "x", 1); err != nil {
		t.Fatalf("Write = %v, want nil: the stale view is site 2's to report, at the flush", err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, proto.ErrSessionMismatch) {
		t.Fatalf("Commit = %v, want ErrSessionMismatch", err)
	}
	if held := h.locks[1].OutstandingLocks(); len(held) != 0 {
		t.Fatalf("failed flush left locks at the coordinator: %v", held)
	}
}
