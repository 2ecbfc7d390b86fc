package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/dm"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/storage"
	"siterecovery/internal/wal"
)

// roomCtx is a transaction attempt's context as tcpnet sees it: one with a
// room of its own, which the attempt's reads of its phase-one replies decode
// into.
type roomCtx struct {
	context.Context
	room proto.Room
}

func (c *roomCtx) Room() *proto.Room { return &c.room }

// ownedBatch is the request a transaction with ID id sends: every value in
// it, and the MaxSeq of its reply, is id, so a request or a reply that shows
// another's is caught.
func ownedBatch(id proto.TxnID) proto.BatchReq {
	return proto.BatchReq{
		Txn: proto.TxnMeta{ID: id, Class: proto.ClassUser, Origin: 1},
		Ops: []proto.BatchOp{
			{Item: "x", Value: proto.Value(id)},
			{Item: "y", Value: proto.Value(id), MissedBy: []proto.SiteID{proto.SiteID(id)}},
		},
		Prepare: true,
	}
}

// intact reports whether req is still the request of transaction id.
func intact(req *proto.BatchReq, id proto.TxnID) bool {
	return req.Txn.ID == id && len(req.Ops) == 2 && req.Ops[0].Value == proto.Value(id) &&
		req.Ops[1].Value == proto.Value(id) && len(req.Ops[1].MissedBy) == 1 && req.Ops[1].MissedBy[0] == proto.SiteID(id)
}

// The two requests of the burst TestServedRequestOwnersStayPrivate writes
// raw: the first one's handler waits, without asking for Done, until the
// second one's has run.
const burstFirst, burstSecond = proto.TxnID(1_000_000), proto.TxnID(1_000_003)

// TestServedRequestOwnersStayPrivate runs batches from several workers at
// once over one connection, each sent by pointer under a context with a room
// as a transaction attempt sends it, so that serving goroutines hand the read
// side on and reuse their owners — the request decoded in place, the
// handler's context, the reply room — as they run. It checks that no request
// sees another's:
//   - every handler answers into its context's room, and every caller gets
//     its own reply;
//   - a third of the handlers ask for Done, which forfeits their owner, and
//     keep the request, the context and the reply past their return: checked
//     once every call is done, each is still its own, and the context is
//     released, with its own deadline;
//   - the others reread their request while the rest are served;
//   - in a burst of two frames written at once, the first one's handler
//     waits for the second one's to run, without asking for Done, and its
//     request is still its own after.
//
// A transport that reused an owner after its handler asked for Done, or
// handed it to the goroutine that took the read side over before its
// handler returned, fails it.
func TestServedRequestOwnersStayPrivate(t *testing.T) {
	const workers, rounds = 6, 60
	trs := newPair(t, 2)
	var (
		errMu  sync.Mutex
		errs   []error
		kept   sync.WaitGroup
		check  = make(chan struct{}) // closed once every call is done
		second = make(chan struct{}) // closed when burstSecond's handler runs
	)
	report := func(format string, args ...any) {
		errMu.Lock()
		errs = append(errs, fmt.Errorf(format, args...))
		errMu.Unlock()
	}
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		req, ok := msg.(*proto.BatchReq)
		if !ok {
			return nil, fmt.Errorf("unhandled %T", msg)
		}
		id := req.Txn.ID
		if !intact(req, id) {
			report("request %v arrived as %+v", id, *req)
		}
		room := ctx.(proto.Roomer).Room()
		room.BatchResp = proto.BatchResp{Vote: true, MaxSeq: uint64(id)}
		reply := &room.BatchResp
		deadline, _ := ctx.Deadline()
		switch {
		case id == burstFirst:
			<-second
		case id == burstSecond:
			close(second)
		case id%3 == 0:
			done := ctx.Done()
			kept.Add(1)
			go func() {
				defer kept.Done()
				<-done // released when the handler returns
				<-check
				if !intact(req, id) {
					report("request %v, kept after Done, became %+v", id, *req)
				}
				if reply.MaxSeq != uint64(id) {
					report("reply of %v, kept after Done, became %+v", id, *reply)
				}
				if d, _ := ctx.Deadline(); !d.Equal(deadline) || ctx.Err() == nil {
					report("context of %v, kept after Done: deadline %v (was %v), err %v", id, d, deadline, ctx.Err())
				}
			}()
		default:
			for range 3 {
				runtime.Gosched()
				if !intact(req, id) {
					report("request %v changed under its handler: %+v", id, *req)
				}
			}
		}
		if !intact(req, id) {
			report("request %v left its handler as %+v", id, *req)
		}
		return reply, nil
	})

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &roomCtx{Context: context.Background()}
			for r := range rounds {
				id := proto.TxnID(w*rounds + r + 1)
				req := ownedBatch(id)
				resp, err := trs[1].Call(ctx, 1, 2, &req)
				if br, ok := proto.As[proto.BatchResp](resp); err != nil || !ok || br.MaxSeq != uint64(id) {
					report("worker %d: call %v = %v, %v", w, id, resp, err)
					return
				}
			}
		}()
	}

	conn, err := net.Dial("tcp", trs[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	first, last := ownedBatch(burstFirst), ownedBatch(burstSecond)
	if _, err := conn.Write(rawRequests(t, &first, &last)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i := range 2 {
		raw, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("burst response %d: %v", i, err)
		}
		if _, isErr, body, err := parseRespHeader(raw); err != nil || isErr {
			t.Fatalf("burst response %d: isErr %v, %v, %q", i, isErr, err, body)
		}
	}

	wg.Wait()
	close(check)
	kept.Wait()
	for _, err := range errs {
		t.Error(err)
	}
}

// TestServeAllocCeilings holds a participant's steady share of a write to
// what it allocates, both ends of the connection counted: a data manager
// serves a BatchReq{Prepare} sent by pointer under a context with a room, as
// a transaction attempt sends it, and the CommitReq posted after it, which
// the next batch's frame carries, with the catalog interning item names. It
// was 12 objects per write while each served request made its handler
// context, boxed its request and its reply and made its op list and item
// names, the data manager made a record and a pending set per transaction
// and copied the set into its prepare record, and the caller boxed its
// request, the posted decision and the reply it decoded. Under the race
// detector sync.Pool drops what it is given at random, so the count is
// compared only without it.
func TestServeAllocCeilings(t *testing.T) {
	items := []proto.Item{"a", "b"}
	cat, err := replication.NewCatalog([]proto.SiteID{1, 2}, map[proto.Item][]proto.SiteID{"a": {1, 2}, "b": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMem(2, append(items, proto.NSItem(1)), 1)
	if err := store.Seed(proto.NSItem(1), 1); err != nil {
		t.Fatal(err)
	}
	m := dm.New(dm.Config{Site: 2, Store: store, Locks: lockmgr.New(lockmgr.Config{}), Log: wal.New()}, dm.Callbacks{})
	m.SetSession(1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[proto.SiteID]string{2: ln.Addr().String()}
	srv := New(Config{Self: 2, Addrs: addrs, Listener: ln, Handler: m.Handle, Names: cat})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := New(Config{Self: 1, Addrs: addrs})
	t.Cleanup(func() { client.Close() })

	ctx := &roomCtx{Context: context.Background()}
	batch := proto.BatchReq{Mode: proto.CheckSession, Expect: 1, Prepare: true,
		Ops: []proto.BatchOp{{Item: "a", Value: 1}, {Item: "b", Value: 2}}}
	var commit proto.CommitReq
	write := func() {
		batch.Txn.ID++
		batch.Txn.Class, batch.Txn.Origin = proto.ClassUser, 1
		resp, err := client.Call(ctx, 1, 2, &batch)
		if br, ok := proto.As[proto.BatchResp](resp); err != nil || !ok || !br.Vote {
			t.Fatalf("batch %v = %v, %v", batch.Txn.ID, resp, err)
		}
		commit = proto.CommitReq{Txn: batch.Txn, CommitSeq: uint64(batch.Txn.ID)}
		if err := client.Post(ctx, 1, 2, &commit); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		write() // dial, and fill the pools and the maps steady state reuses
	}
	const ceiling = 0
	if got := testing.AllocsPerRun(200, write); got > ceiling && !raceEnabled {
		t.Errorf("a served write allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// TestServedPostAllocatesNothing: the serving side of a posted decision —
// its frame read into the connection's buffer, decoded into the owner's
// room, served under the owner's context — allocates nothing. No pool is
// involved, only the owner its goroutine holds, so the count decides under
// the race detector too.
func TestServedPostAllocatesNothing(t *testing.T) {
	trs := newPair(t, 2)
	served := make(chan struct{}, 1)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if c, ok := msg.(*proto.CommitReq); !ok || c.CommitSeq != 9 {
			t.Errorf("served %#v, want a *CommitReq from the room", msg)
		}
		served <- struct{}{}
		return nil, nil
	})
	conn, err := net.Dial("tcp", trs[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := appendRequest(nil, reqHeader{id: 1, from: 1, budgetUS: 2_000_000, oneWay: true},
		&proto.CommitReq{Txn: proto.TxnMeta{ID: 7, Class: proto.ClassUser, Origin: 1}, CommitSeq: 9})
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		<-served
	}
	post() // the goroutine's owner and buffer are made here
	if n := testing.AllocsPerRun(200, post); n != 0 {
		t.Errorf("serving a posted decision allocates %v times", n)
	}
}

// TestConcurrentCallsToARefusingSiteShareOneDial: calls that find another
// call's dial to a site in progress wait for it, and when it is refused
// after as many retries as theirs they fail with it instead of dialing again
// each in turn. Eight calls to a refusing site fail within about one dial's
// retries, not eight.
func TestConcurrentCallsToARefusingSiteShareOneDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	const retries, wait, callers = 2, 100 * time.Millisecond, 8
	tr := New(Config{Self: 1, Addrs: map[proto.SiteID]string{2: refused}, DialRetries: retries, DialRetryWait: wait})
	t.Cleanup(func() { tr.Close() })

	start := time.Now()
	errs := make(chan error, callers)
	for range callers {
		go func() {
			_, err := tr.Call(context.Background(), 1, 2, proto.ProbeReq{})
			errs <- err
		}()
	}
	for range callers {
		if err := <-errs; !errors.Is(err, proto.ErrSiteDown) {
			t.Fatalf("call to a refusing site = %v, want ErrSiteDown", err)
		}
	}
	if took, sequence := time.Since(start), retries*wait; took >= 3*sequence {
		t.Fatalf("%d concurrent calls to a refusing site took %v; one dial's retries take %v", callers, took, sequence)
	}
}

// TestHandOffAllocCeiling holds a hand-off of the read side to what it
// allocates, both ends counted. Two callers' frames that reach the server
// in one read, as two concurrent callers' do, make the goroutine that read
// the first one hand the read side over before it serves it; the handler
// asks nothing of its context. The goroutine that takes over takes the
// owner the one before it left, room and op list included, so a hand-off
// makes only its goroutine. It was 4 objects and about 375 B while every
// goroutine made its own owner and the one it replaced went to the GC.
func TestHandOffAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	trs := newPair(t, 2)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		room := ctx.(proto.Roomer).Room()
		room.BatchResp = proto.BatchResp{Vote: true, MaxSeq: 7}
		return &room.BatchResp, nil
	})
	conn, err := net.Dial("tcp", trs[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	first, second := ownedBatch(1), ownedBatch(2)
	pair := rawRequests(t, &first, &second)
	r := bufio.NewReader(conn)
	var raw []byte
	burst := func() {
		if _, err := conn.Write(pair); err != nil {
			t.Fatal(err)
		}
		for i := range 2 {
			if raw, err = readFrame(r, raw); err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
		}
	}
	for range 10 {
		burst() // the first owners, and their op lists, are made here
	}
	const bursts = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range bursts {
		burst()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / bursts
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / bursts
	t.Logf("per hand-off: %.2f objects, %.0f B", objects, bytes)
	if objects > 1.5 || bytes > 120 {
		t.Errorf("a hand-off allocates %.2f objects and %.0f B, ceiling 1.5 and 120", objects, bytes)
	}
}
