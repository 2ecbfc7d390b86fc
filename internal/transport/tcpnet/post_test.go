package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
)

// TestPostRunsHandlerWritesNoResponse pins the one-way bit on the wire: it is
// the second bit of the request header's flags byte, the serving side runs
// the handler for a posted frame and writes nothing back, and the connection
// goes on serving acknowledged requests.
func TestPostRunsHandlerWritesNoResponse(t *testing.T) {
	hdr := appendReqHeader(nil, reqHeader{id: 1, from: 1, budgetUS: 1, oneWay: true})
	if want := []byte{4, 1, 2, 2, flagOneWay}; !bytes.Equal(hdr, want) {
		t.Fatalf("posted request header = %v, want %v", hdr, want)
	}
	if h, _, err := parseReqHeader(hdr); err != nil || !h.oneWay || h.traced {
		t.Fatalf("posted header parsed as %+v, %v", h, err)
	}

	trs := newPair(t, 2)
	served := make(chan proto.Message, 2)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		served <- msg
		return proto.ProbeResp{Operational: true}, nil
	})
	conn, err := net.Dial("tcp", trs[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))

	post, err := appendRequest(nil, reqHeader{id: 7, from: 1, budgetUS: 2_000_000, oneWay: true}, proto.CommitReq{CommitSeq: 9})
	if err != nil {
		t.Fatal(err)
	}
	call, err := appendRequest(nil, reqHeader{id: 8, from: 1, budgetUS: 2_000_000}, proto.ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(post, call...)); err != nil {
		t.Fatal(err)
	}
	raw, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	if id, _, _, err := parseRespHeader(raw); err != nil || id != 8 {
		t.Fatalf("first response frame answers request %d (%v), want 8: the posted request 7 gets none", id, err)
	}
	got := map[string]bool{(<-served).Kind(): true, (<-served).Kind(): true}
	if !got["commit"] || !got["probe"] {
		t.Fatalf("handler served %v, want the posted commit and the probe", got)
	}
}

// TestPostIsTracedAsAMarkedClientSpan: Post delivers, returns without a
// reply, and records a client span that finishes at the write and carries
// the posted mark; the serving side records an ordinary server span.
func TestPostIsTracedAsAMarkedClientSpan(t *testing.T) {
	trs, hubs := newTracedPair(t)
	served := make(chan struct{})
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		defer close(served)
		return proto.CommitResp{}, nil
	})
	ctx := obs.WithSpan(context.Background(), obs.SpanContext{Root: 9, Span: obs.NewSpanID(1), Origin: 1})
	if err := trs[1].Post(ctx, 1, 2, proto.CommitReq{CommitSeq: 3}); err != nil {
		t.Fatalf("Post: %v", err)
	}
	client := spanEvents(hubs[1])
	if len(client) != 2 || client[0].Type != obs.EvSpanStart || client[1].Type != obs.EvSpanFinish {
		t.Fatalf("client span events after Post returned = %+v, want a start and a finish", client)
	}
	for _, e := range client {
		if side, kind, reason, _ := obs.SpanSide(e); side != obs.SideClient || kind != "commit" || reason != "" || !obs.SpanPosted(e) || e.Txn != 9 {
			t.Errorf("client event = %+v, want a posted client:commit under root 9", e)
		}
	}
	<-served
	waitFor(t, func() bool { return len(spanEvents(hubs[2])) == 2 })
	for _, e := range spanEvents(hubs[2]) {
		if side, kind, _, _ := obs.SpanSide(e); side != obs.SideServer || kind != "commit" || obs.SpanPosted(e) || e.Span != client[0].Span {
			t.Errorf("server event = %+v, want server:commit on span %x", e, client[0].Span)
		}
	}
	if got := hubs[1].Value(1, "net", "sent.commit"); got != 1 {
		t.Errorf("sent.commit = %d, want 1: a posted request is still a message sent", got)
	}

	// Post to the own site runs the handler inline; from the wrong site it
	// is refused.
	ran := false
	trs[1].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		ran = true
		return nil, proto.ErrUnknownTxn
	})
	if err := trs[1].Post(ctx, 1, 1, proto.CommitReq{}); !errors.Is(err, proto.ErrUnknownTxn) || !ran {
		t.Errorf("Post to self: err = %v, ran = %v", err, ran)
	}
	if err := trs[1].Post(ctx, 2, 1, proto.CommitReq{}); err == nil {
		t.Error("Post from the wrong site accepted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPostToDeadPeerIsSiteDown: the one failure a poster can see is a frame
// that could not be written.
func TestPostToDeadPeerIsSiteDown(t *testing.T) {
	trs := newPair(t, 2)
	trs[2].Close()
	if err := trs[1].Post(context.Background(), 1, 2, proto.CommitReq{}); !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("Post to a closed peer: %v, want ErrSiteDown", err)
	}
}

// TestStrayReplyToPostIsDropped: a peer built before the one-way bit answers
// every request. Its reply to a posted request finds nobody registered, the
// demux drops it, and the acknowledged requests around it get their own
// replies: nothing hangs and nothing is left pending.
func TestStrayReplyToPostIsDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var answered atomic.Int64
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			payload, err := readFrame(r, nil)
			if err != nil {
				return
			}
			// The old header decoder: id, from, budget, and a flags byte of
			// which it knows the traced bit only.
			req, _, err := parseReqHeader(payload)
			if err != nil {
				return
			}
			answered.Add(1)
			out := appendResponse(nil, req.id, proto.ProbeResp{Session: proto.Session(req.id)}, nil)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	tr := New(Config{Self: 1, Addrs: map[proto.SiteID]string{2: ln.Addr().String()}, DialRetries: 1, CallTimeout: 2 * time.Second})
	defer tr.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := tr.Post(ctx, 1, 2, proto.CommitReq{}); err != nil {
			t.Fatalf("Post %d: %v", i, err)
		}
		resp, err := tr.Call(ctx, 1, 2, proto.ProbeReq{})
		if err != nil {
			t.Fatalf("Call %d after a Post: %v", i, err)
		}
		// IDs are handed out in order: the call's is the post's plus one,
		// and the reply it got is its own, not the stray.
		if got, want := resp.(proto.ProbeResp).Session, proto.Session(2*i+2); got != want {
			t.Fatalf("Call %d got the reply to request %d, want %d", i, got, want)
		}
	}
	if got := answered.Load(); got != 6 {
		t.Fatalf("peer answered %d requests, want 6", got)
	}
	tr.mu.Lock()
	pc := tr.peers[2]
	tr.mu.Unlock()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead || len(pc.pending) != 0 {
		t.Fatalf("connection dead=%v with %d requests pending, want it live with none", pc.dead, len(pc.pending))
	}
}

// TestSendWaitPipelinesOnOneGoroutine: several Sends to one peer are all on
// the wire before the first Wait, and each Wait returns its own reply
// whatever order the handlers finish in.
func TestSendWaitPipelinesOnOneGoroutine(t *testing.T) {
	trs := newPair(t, 2)
	var arrived atomic.Int32
	allIn := make(chan struct{})
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if arrived.Add(1) == 3 {
			close(allIn)
		}
		select { // no handler answers until every request is in
		case <-allIn:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return proto.ReadResp{Value: proto.Value(len(msg.(proto.ReadReq).Item))}, nil
	})
	ctx := context.Background()
	var pending []transport.Pending
	for _, item := range []proto.Item{"a", "bb", "ccc"} {
		p := trs[1].Send(ctx, 1, 2, proto.ReadReq{Item: item})
		if p.Complete() {
			t.Fatalf("Send %q completed at once: %v", item, p)
		}
		pending = append(pending, p)
	}
	for i := len(pending) - 1; i >= 0; i-- {
		resp, err := pending[i].Wait()
		if err != nil || resp.(proto.ReadResp).Value != proto.Value(i+1) {
			t.Fatalf("Wait %d = %v, %v", i, resp, err)
		}
	}
}

// TestServingWorkersAreReused: sequential requests on one connection are all
// served by the goroutine that reads them — the goroutine count does not move
// with the number of frames — while handlers that wait on their contexts at
// once are one goroutine each (plus the one reading), a later request is not
// stuck behind them, and every one of them exits when the transport closes.
func TestServingWorkersAreReused(t *testing.T) {
	// serving counts every transport's readers in the process: let an
	// earlier test's, still returning from a Close that waited for it,
	// finish before this test counts its own.
	waitFor(t, func() bool { return serving() == 0 })
	trs := newPair(t, 2)
	gate := make(chan struct{})
	var slow sync.WaitGroup
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if msg.(proto.ReadReq).Item == "slow" {
			slow.Done()
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return proto.ReadResp{}, nil
	})
	ctx := context.Background()
	call := func(item proto.Item) {
		if _, err := trs[1].Call(ctx, 1, 2, proto.ReadReq{Item: item}); err != nil {
			t.Error(err)
		}
	}
	call("warm") // dial; the serving side starts reading
	call("warm")
	for i := 0; i < 200; i++ {
		call("fast")
		if got := serving(); got != 1 {
			t.Fatalf("sequential request %d: %d serving goroutines, want the one reader", i, got)
		}
	}

	const concurrent = 4
	slow.Add(concurrent)
	var callers sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			call("slow")
		}()
	}
	slow.Wait() // all four are in their handlers at once
	// Four waiting handlers and the reader they handed the connection to.
	waitFor(t, func() bool { return serving() == concurrent+1 })
	call("fast") // a fifth request is not stuck behind them
	close(gate)
	callers.Wait()
	waitFor(t, func() bool { return serving() == 1 })

	trs[1].Close()
	trs[2].Close() // waits for every reader and handler
	// Close waited for them to finish; give the last one its final return.
	waitFor(t, func() bool { return serving() == 0 })
}

// countingCtx counts how often its Done channel is asked for: every
// context.WithDeadline or WithCancel derived from it asks once, to register
// with it.
type countingCtx struct {
	context.Context
	done atomic.Int64
}

func (c *countingCtx) Done() <-chan struct{} {
	c.done.Add(1)
	return c.Context.Done()
}

// TestUncontendedHandlerRegistersNothingOnBaseCtx: a handler that never
// waits on its context costs the transport's base context nothing — no
// child registered, no timer — while its deadline and Err are exact; a
// handler that does wait arms the context, and is then stopped by the
// caller's budget running out and by Close.
func TestUncontendedHandlerRegistersNothingOnBaseCtx(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[proto.SiteID]string{2: ln.Addr().String()}
	trs := map[proto.SiteID]*Transport{
		1: New(Config{Self: 1, Addrs: addrs, DialRetries: 1, CallTimeout: 2 * time.Second}),
		2: New(Config{Self: 2, Addrs: addrs, Listener: ln, CallTimeout: 2 * time.Second}),
	}
	base := &countingCtx{Context: trs[2].baseCtx}
	trs[2].baseCtx = base
	if err := trs[2].Start(); err != nil {
		t.Fatal(err)
	}
	defer trs[1].Close()
	defer trs[2].Close()

	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		d, ok := ctx.Deadline()
		if left := time.Until(d); !ok || left <= 0 || left > 2*time.Second {
			t.Errorf("handler deadline = %v (%v), want within the 2s CallTimeout", d, ok)
		}
		if err := ctx.Err(); err != nil {
			t.Errorf("live handler ctx.Err() = %v", err)
		}
		return proto.ProbeResp{}, nil
	})
	for i := 0; i < 10; i++ {
		if _, err := trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := base.done.Load(); got != 0 {
		t.Fatalf("ten uncontended handlers asked the base context for Done %d times, want 0", got)
	}

	// A handler that waits is released when the caller's budget is spent...
	entered, stopped := make(chan struct{}, 1), make(chan error, 1)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		entered <- struct{}{}
		<-ctx.Done()
		stopped <- ctx.Err()
		// Both ends' timers fire together; let the caller's own timeout, not
		// this error racing back, be what the abandoned call reports.
		time.Sleep(20 * time.Millisecond)
		return nil, ctx.Err()
	})
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := trs[1].Call(short, 1, 2, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("abandoned call: %v, want ErrSiteDown", err)
	}
	<-entered
	select {
	case err := <-stopped:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiting handler stopped with %v, want DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("handler still waiting a second after its caller's 50ms budget ran out")
	}
	if got := base.done.Load(); got == 0 {
		t.Fatal("a waiting handler never registered with the base context")
	}

	// ...and when the transport closes under it.
	go trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{})
	<-entered
	closed := make(chan struct{})
	go func() {
		trs[2].Close()
		close(closed)
	}()
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler stopped by Close with %v, want Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not cancel the in-flight handler")
	}
	<-closed
}
