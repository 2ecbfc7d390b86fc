package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
)

// newPair starts n transports on pre-bound localhost ports so every peer
// knows the full address map up front, the way srnode processes do.
func newPair(t testing.TB, n int) map[proto.SiteID]*Transport {
	t.Helper()
	listeners := make(map[proto.SiteID]net.Listener, n)
	addrs := make(map[proto.SiteID]string, n)
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[proto.SiteID(i)] = ln
		addrs[proto.SiteID(i)] = ln.Addr().String()
	}
	out := make(map[proto.SiteID]*Transport, n)
	for i := 1; i <= n; i++ {
		id := proto.SiteID(i)
		tr := New(Config{
			Self:          id,
			Addrs:         addrs,
			Listener:      listeners[id],
			DialRetries:   1,
			DialRetryWait: 10 * time.Millisecond,
			CallTimeout:   2 * time.Second,
		})
		tr.SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
			switch m := msg.(type) {
			case proto.ProbeReq:
				return proto.ProbeResp{Operational: true, Session: proto.Session(id)}, nil
			case proto.ReadReq:
				if m.Item == "boom" {
					return nil, fmt.Errorf("site %v: %q: %w", id, m.Item, proto.ErrUnreadable)
				}
				return proto.ReadResp{Value: proto.Value(10 * int64(id))}, nil
			default:
				return nil, fmt.Errorf("unhandled %T", msg)
			}
		})
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		out[id] = tr
	}
	return out
}

func TestCallRoundTrip(t *testing.T) {
	trs := newPair(t, 2)
	ctx := context.Background()

	resp, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	pr, ok := resp.(proto.ProbeResp)
	if !ok || !pr.Operational || pr.Session != 2 {
		t.Fatalf("resp = %#v", resp)
	}

	// Local calls short-circuit through the handler.
	resp, err = trs[1].Call(ctx, 1, 1, proto.ReadReq{Item: "x"})
	if err != nil {
		t.Fatalf("local call: %v", err)
	}
	if rr := resp.(proto.ReadResp); rr.Value != 10 {
		t.Fatalf("local read = %d, want 10", rr.Value)
	}

	// Connection reuse: a second remote call must succeed on the pooled
	// connection.
	if _, err := trs[1].Call(ctx, 1, 2, proto.ReadReq{Item: "x"}); err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestHandlerErrorsKeepSentinels(t *testing.T) {
	trs := newPair(t, 2)
	_, err := trs[1].Call(context.Background(), 1, 2, proto.ReadReq{Item: "boom"})
	if !errors.Is(err, proto.ErrUnreadable) {
		t.Fatalf("err = %v, want ErrUnreadable across the wire", err)
	}
}

func TestDeadPeerIsSiteDown(t *testing.T) {
	trs := newPair(t, 3)
	trs[3].Close()

	_, err := trs[1].Call(context.Background(), 1, 3, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown", err)
	}

	// A peer that dies between calls (stale pooled connection) is also
	// reported down.
	if _, err := trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatal(err)
	}
	trs[2].Close()
	_, err = trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("stale-conn err = %v, want ErrSiteDown", err)
	}
}

func TestCallValidatesOrigin(t *testing.T) {
	trs := newPair(t, 2)
	if _, err := trs[1].Call(context.Background(), 2, 1, proto.ProbeReq{}); err == nil {
		t.Fatal("call from the wrong site accepted")
	}
}

// TestParallelCalls exercises the shared per-peer connections under
// concurrent callers.
func TestParallelCalls(t *testing.T) {
	trs := newPair(t, 4)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 120)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				to := proto.SiteID(2 + i%3)
				resp, err := trs[1].Call(ctx, 1, to, proto.ReadReq{Item: "x"})
				if err != nil {
					errs <- err
					return
				}
				if rr := resp.(proto.ReadResp); rr.Value != proto.Value(10*int64(to)) {
					errs <- fmt.Errorf("read from %v = %d", to, rr.Value)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNoResendAfterDeliveredFrame pins the at-most-once contract: once a
// request frame has been fully written to a connection, a failure to read the
// reply is conclusive (ErrSiteDown) — the frame must not be resent on another
// connection, where the peer could execute a non-idempotent message twice.
// The fake peer answers the first call, then reads the second call's frame
// and drops the connection without replying.
func TestNoResendAfterDeliveredFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	frames, accepts := 0, 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepts++
			mu.Unlock()
			go func(c net.Conn) {
				defer c.Close()
				for {
					payload, err := readFrame(c, nil)
					if err != nil {
						return
					}
					req, _, err := parseReqHeader(payload)
					if err != nil {
						return
					}
					mu.Lock()
					frames++
					n := frames
					mu.Unlock()
					if n > 1 {
						return // delivered but unanswered: close the conn
					}
					out := appendResponse(nil, req.id, proto.ProbeResp{Operational: true}, nil)
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	tr := New(Config{
		Self:        1,
		Addrs:       map[proto.SiteID]string{2: ln.Addr().String()},
		DialRetries: 1,
		CallTimeout: 2 * time.Second,
	})
	defer tr.Close()

	ctx := context.Background()
	if _, err := tr.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_, err = tr.Call(ctx, 1, 2, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("second call err = %v, want ErrSiteDown", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if frames != 2 {
		t.Fatalf("peer received %d frames, want 2 (a resend would execute the request twice)", frames)
	}
	if accepts != 1 {
		t.Fatalf("peer accepted %d connections, want 1 (a retry would have redialed)", accepts)
	}
}

// TestHandlerDeadlineCarriesCallerBudget checks that the serving side bounds
// handler contexts by the caller's remaining time budget rather than always
// granting the full CallTimeout: an abandoned request must stop holding locks
// at roughly the moment the caller gives up.
func TestHandlerDeadlineCarriesCallerBudget(t *testing.T) {
	trs := newPair(t, 2) // CallTimeout is 2s
	budget := make(chan time.Duration, 1)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		d, ok := ctx.Deadline()
		if !ok {
			t.Error("handler ctx has no deadline")
			budget <- 0
		} else {
			budget <- time.Until(d)
		}
		return proto.ProbeResp{Operational: true}, nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if d := <-budget; d <= 0 || d > 500*time.Millisecond {
		t.Fatalf("handler budget = %v, want ~300ms (caller's deadline, not the 2s CallTimeout)", d)
	}
}

// TestSubMillisecondBudgetIsNotNoBudget: a caller with 300 µs left must hand
// the handler a 300 µs deadline. The budget used to cross the wire in whole
// milliseconds, where anything under one truncated to 0, which the serving
// side read as "no budget" and ran the handler — holding its locks — for the
// full CallTimeout.
func TestSubMillisecondBudgetIsNotNoBudget(t *testing.T) {
	trs := newPair(t, 2) // CallTimeout is 2s
	budget := make(chan time.Duration, 1)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if d, ok := ctx.Deadline(); ok {
			budget <- time.Until(d)
		} else {
			budget <- time.Hour
		}
		return proto.ProbeResp{Operational: true}, nil
	})
	if _, err := trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}
	<-budget

	// The caller itself usually times out first, so its error says nothing;
	// and on a busy box the 300 µs can run out before the frame is written,
	// in which case the handler never runs and the attempt is repeated.
	for attempt := 0; attempt < 50; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
		trs[1].Call(ctx, 1, 2, proto.ProbeReq{})
		cancel()
		select {
		case d := <-budget:
			if d > 300*time.Microsecond {
				t.Fatalf("handler budget = %v, want at most the caller's 300µs", d)
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("no 300µs call reached the handler in 50 attempts")
}

// TestSpentBudgetCancelsHandlerAtOnce sends request frames whose budget is
// zero and negative: the handler's context must already be done, not open
// for the whole CallTimeout.
func TestSpentBudgetCancelsHandlerAtOnce(t *testing.T) {
	trs := newPair(t, 2)
	ctxErr := make(chan error, 1)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		ctxErr <- ctx.Err()
		return proto.ProbeResp{}, nil
	})
	conn, err := net.Dial("tcp", trs[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, us := range []int64{0, -1, -5_000_000} {
		frame, err := appendRequest(nil, reqHeader{id: uint64(i + 1), from: 1, budgetUS: us}, proto.ProbeReq{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if err := <-ctxErr; !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("budget %dµs: handler ctx.Err() = %v, want DeadlineExceeded on entry", us, err)
		}
	}
}

// TestBatchRoundTrip pins the commit flush's wire contract: a multi-op
// BatchReq crosses TCP as one frame per site and its BatchResp carries the
// piggybacked prepare vote and commit-sequence watermark back intact.
func TestBatchRoundTrip(t *testing.T) {
	trs := newPair(t, 2)
	got := make(chan proto.BatchReq, 1)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		br, ok := msg.(*proto.BatchReq) // decoded in the serving goroutine's room
		if !ok {
			return nil, fmt.Errorf("unhandled %T", msg)
		}
		got <- *br // one request on the connection: nothing reuses the room
		return proto.BatchResp{Vote: true, MaxSeq: 42}, nil
	})

	req := proto.BatchReq{
		Txn:    proto.TxnMeta{ID: 7, Origin: 1, Class: proto.ClassUser},
		Mode:   proto.CheckSession,
		Expect: 3,
		Ops: []proto.BatchOp{
			{Item: "x", Value: 5, MissedBy: []proto.SiteID{3}},
			{Item: "y", Value: 6},
		},
		Prepare: true,
	}
	resp, err := trs[1].Call(context.Background(), 1, 2, req)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	vote, ok := resp.(proto.BatchResp)
	if !ok || !vote.Vote || vote.MaxSeq != 42 {
		t.Fatalf("resp = %#v, want yes vote with MaxSeq 42", resp)
	}
	arrived := <-got
	if !reflect.DeepEqual(arrived, req) {
		t.Fatalf("batch changed in flight:\nsent %+v\ngot  %+v", req, arrived)
	}
}

// countingListener counts accepted connections, so tests can assert that
// multiplexing keeps many in-flight calls on ONE connection.
type countingListener struct {
	net.Listener
	mu      sync.Mutex
	accepts int
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.accepts++
		l.mu.Unlock()
	}
	return c, err
}

func (l *countingListener) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepts
}

// newCountedPeer starts a server transport behind a counting listener and a
// client transport pointed at it.
func newCountedPeer(t testing.TB, handler transport.Handler) (client *Transport, accepts func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := New(Config{
		Self:     2,
		Addrs:    map[proto.SiteID]string{2: ln.Addr().String()},
		Listener: cl,
		Handler:  handler,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	client = New(Config{
		Self:        1,
		Addrs:       map[proto.SiteID]string{2: ln.Addr().String()},
		DialRetries: 1,
		CallTimeout: 5 * time.Second,
	})
	t.Cleanup(func() { client.Close() })
	return client, cl.count
}

// TestMultiplexedCallsShareOneConnection pins the tentpole property of the
// multiplexed framing: many interleaved concurrent calls to one peer ride a
// single TCP connection (the PR 4 pool would have opened one per in-flight
// call), and every response is demuxed back to its own caller.
func TestMultiplexedCallsShareOneConnection(t *testing.T) {
	const inflight = 8
	gate := make(chan struct{})
	started := make(chan struct{}, inflight)
	client, accepts := newCountedPeer(t, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		started <- struct{}{}
		select { // hold every request in flight simultaneously
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		rr := msg.(proto.ReadReq)
		return proto.ReadResp{Value: proto.Value(len(rr.Item))}, nil
	})

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for g := 0; g < inflight; g++ {
		item := proto.Item(make([]byte, g+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Call(ctx, 1, 2, proto.ReadReq{Item: item})
			if err != nil {
				errs <- err
				return
			}
			if rr := resp.(proto.ReadResp); rr.Value != proto.Value(len(item)) {
				errs <- fmt.Errorf("demux mixed up responses: len %d got %d", len(item), rr.Value)
			}
		}()
	}
	// Wait until every call is simultaneously in flight, then release.
	for i := 0; i < inflight; i++ {
		<-started
	}
	if got := accepts(); got != 1 {
		t.Errorf("%d in-flight calls used %d connections, want 1", inflight, got)
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSlowResponseDoesNotBlockLaterRequests checks head-of-line freedom on
// both sides: a request whose handler stalls must not delay a later request
// on the same connection, because a handler that waits on its context gives
// the connection's read side away and the client demuxes out-of-order
// responses.
func TestSlowResponseDoesNotBlockLaterRequests(t *testing.T) {
	slowGate := make(chan struct{})
	slowArrived := make(chan struct{})
	client, accepts := newCountedPeer(t, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		rr := msg.(proto.ReadReq)
		if rr.Item == "slow" {
			close(slowArrived)
			select {
			case <-slowGate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return proto.ReadResp{Value: 1}, nil
	})

	ctx := context.Background()
	slowDone := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, 1, 2, proto.ReadReq{Item: "slow"})
		slowDone <- err
	}()
	<-slowArrived // the slow request is on the wire and stalled in its handler

	// The fast call, issued later on the same connection, must complete
	// while the slow one is still stalled.
	fastCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := client.Call(fastCtx, 1, 2, proto.ReadReq{Item: "fast"}); err != nil {
		t.Fatalf("fast call stuck behind slow one: %v", err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before its gate opened: %v", err)
	default:
	}
	if got := accepts(); got != 1 {
		t.Errorf("slow+fast calls used %d connections, want 1", got)
	}
	close(slowGate)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestNoResendWhenConnDiesWithManyInFlight extends the at-most-once contract
// to the multiplexed connection: when the shared connection dies with several
// written-but-unanswered frames in flight, EVERY one of those calls must fail
// conclusively (ErrSiteDown) rather than be resent on a new connection.
func TestNoResendWhenConnDiesWithManyInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const inflight = 3
	var mu sync.Mutex
	frames, accepts := 0, 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepts++
			mu.Unlock()
			go func(c net.Conn) {
				defer c.Close()
				for {
					if _, err := readFrame(c, nil); err != nil {
						return
					}
					mu.Lock()
					frames++
					n := frames
					mu.Unlock()
					if n >= inflight {
						return // all frames delivered: kill the conn, answer none
					}
				}
			}(conn)
		}
	}()

	tr := New(Config{
		Self:        1,
		Addrs:       map[proto.SiteID]string{2: ln.Addr().String()},
		DialRetries: 1,
		CallTimeout: 2 * time.Second,
	})
	defer tr.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tr.Call(ctx, 1, 2, proto.ProbeReq{})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, proto.ErrSiteDown) {
			t.Fatalf("in-flight call err = %v, want ErrSiteDown", err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if frames != inflight {
		t.Fatalf("peer received %d frames, want %d (more means a conclusive call was resent)", frames, inflight)
	}
	if accepts != 1 {
		t.Fatalf("peer accepted %d connections, want 1 (a resend would have redialed)", accepts)
	}
}
