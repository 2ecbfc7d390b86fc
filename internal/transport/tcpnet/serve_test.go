package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/lockmgr"
	"siterecovery/internal/proto"
)

// The serving rule (package comment): a frame is served by the goroutine
// that read it, and the handler's first ctx.Done() — or more request bytes
// already buffered behind the frame — passes the connection's read side on.

// serving counts the goroutines that are in a connection's readLoop: for
// each live inbound connection the one that owns the read side, plus every
// handler still running after it gave the read side away. Counting stacks,
// not runtime.NumGoroutine, keeps other tests' stragglers out of the number.
func serving() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("tcpnet.(*servedConn).readLoop("))
}

// TestAbortOvertakesBatchParkedOnLock: a BatchReq waiting in a real
// lockmgr.Acquire does not hold up the AbortReq behind it on the same
// connection. The abort lands while the batch still waits, and its
// ReleaseAll fails the batch promptly instead of at the lock timeout.
func TestAbortOvertakesBatchParkedOnLock(t *testing.T) {
	trs := newPair(t, 2)
	locks := lockmgr.New(lockmgr.Config{Timeout: 30 * time.Second})
	const holder, waiter = proto.TxnID(1), proto.TxnID(2)
	if err := locks.Acquire(context.Background(), holder, "x", lockmgr.Exclusive); err != nil {
		t.Fatal(err)
	}
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		switch m := msg.(type) {
		case *proto.BatchReq: // decoded in the serving goroutine's room
			for _, op := range m.Ops {
				if err := locks.Acquire(ctx, m.Txn.ID, string(op.Item), lockmgr.Exclusive); err != nil {
					return nil, err
				}
			}
			return proto.BatchResp{Vote: true}, nil
		case proto.AbortReq:
			locks.ReleaseAll(m.Txn.ID)
			return proto.AbortResp{}, nil
		}
		return nil, errors.New("unhandled")
	})

	ctx := context.Background()
	meta := proto.TxnMeta{ID: waiter, Origin: 1}
	if _, err := trs[1].Call(ctx, 1, 2, proto.AbortReq{Txn: proto.TxnMeta{ID: 99}}); err != nil { // dial
		t.Fatal(err)
	}
	batch := trs[1].Send(ctx, 1, 2, proto.BatchReq{Txn: meta, Ops: []proto.BatchOp{{Item: "x", Value: 1}}, Prepare: true})
	// Acquire asks for Done once its request is queued, and that starts the
	// goroutine that will read the abort.
	waitFor(t, func() bool { return serving() == 2 })

	start := time.Now()
	if _, err := trs[1].Call(ctx, 1, 2, proto.AbortReq{Txn: meta}); err != nil {
		t.Fatalf("abort behind a parked batch: %v", err)
	}
	if _, err := batch.Wait(); err == nil || !strings.Contains(err.Error(), lockmgr.ErrReleased.Error()) {
		t.Fatalf("parked batch = %v, want %q", err, lockmgr.ErrReleased)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("abort and the batch it released took %v; the call timeout is 2s, the lock timeout 30s", took)
	}
	if got := locks.Held(waiter); len(got) != 0 {
		t.Fatalf("aborted transaction holds %v", got)
	}
}

// TestLateDoneForksNoSecondReader: Done() after the handler has returned, or
// from a goroutine the handler started, must never put a second reader on
// the connection's bufio.Reader. Under -race two readers are a reported
// race; without it, they tear the frame stream, which 1000 echoed frames
// would show.
func TestLateDoneForksNoSecondReader(t *testing.T) {
	trs := newPair(t, 2)
	var late sync.WaitGroup
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		late.Add(1)
		go func() { // leaked: outlives the handler, asks for Done around its return
			defer late.Done()
			runtime.Gosched()
			<-ctx.Done() // closed by release
		}()
		return proto.ReadResp{Value: proto.Value(len(msg.(proto.ReadReq).Item))}, nil
	})
	ctx := context.Background()
	item := make([]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		item = append(item, 'x')
		resp, err := trs[1].Call(ctx, 1, 2, proto.ReadReq{Item: proto.Item(item)})
		if err != nil || resp.(proto.ReadResp).Value != proto.Value(i+1) {
			t.Fatalf("frame %d = %v, %v", i, resp, err)
		}
	}
	late.Wait()
	// Done on a context whose handler returned long ago: still no reader.
	var kept context.Context
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		kept = ctx
		return proto.ReadResp{}, nil
	})
	if _, err := trs[1].Call(ctx, 1, 2, proto.ReadReq{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-kept.Done():
	default:
		t.Fatal("a released handler context is not done")
	}
	waitFor(t, func() bool { return serving() == 1 }) // a second reader would stay
	if _, err := trs[1].Call(ctx, 1, 2, proto.ReadReq{}); err != nil {
		t.Fatalf("connection unusable after a late Done: %v", err)
	}
}

// rawRequests frames the given requests back to back into one buffer.
func rawRequests(t *testing.T, msgs ...proto.Message) []byte {
	t.Helper()
	var b []byte
	for i, msg := range msgs {
		frame, err := appendRequest(nil, reqHeader{id: uint64(i + 1), from: 1, budgetUS: 2_000_000}, msg)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, frame...)
	}
	return b
}

// TestBufferedBurstIsServedConcurrently: three frames that reach the server
// in one read are all in their handlers at once, though none of the handlers
// ever touches its context — a frame with request bytes buffered behind it
// passes the read side on before it is served.
func TestBufferedBurstIsServedConcurrently(t *testing.T) {
	trs := newPair(t, 2)
	var in atomic.Int32
	allIn := make(chan struct{})
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if in.Add(1) == 3 {
			close(allIn)
		}
		<-allIn // deliberately not ctx.Done(): only the buffered rule can free the reader
		return proto.ProbeResp{Operational: true}, nil
	})
	t.Cleanup(func() { // a failed run must not leave Close waiting on parked handlers
		if in.Swap(3) < 3 {
			close(allIn)
		}
	})
	conn, err := net.Dial("tcp", trs[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(rawRequests(t, proto.ProbeReq{}, proto.ProbeReq{}, proto.ProbeReq{})); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		raw, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("response %d: %v (the burst was served one frame at a time)", i, err)
		}
		id, isErr, _, err := parseRespHeader(raw)
		if err != nil || isErr {
			t.Fatalf("response %d: id %d, isErr %v, %v", i, id, isErr, err)
		}
		seen[id] = true
	}
	if len(seen) != 3 {
		t.Fatalf("responses for %v, want IDs 1-3", seen)
	}
}

// goid names the calling goroutine, from the header line of its stack.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestPostedFrameIsServedInline: a posted frame takes the same path as a
// request, and is served inline even with the request it rode ahead of
// buffered behind it. Posts and requests alternating on one connection, none
// of them waiting, are all served by the one goroutine that reads them, in
// the order they were written.
func TestPostedFrameIsServedInline(t *testing.T) {
	trs := newPair(t, 2)
	var mu sync.Mutex
	var order, ids []string
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		mu.Lock()
		order, ids = append(order, msg.Kind()), append(ids, goid())
		mu.Unlock()
		return proto.ProbeResp{}, nil
	})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := trs[1].Post(ctx, 1, 2, proto.CommitReq{}); err != nil {
			t.Fatal(err)
		}
		if _, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range order {
		want := proto.CommitReq{}.Kind()
		if i%2 == 1 {
			want = proto.ProbeReq{}.Kind()
		}
		if order[i] != want || ids[i] != ids[0] {
			t.Fatalf("frame %d: %s on goroutine %s, want %s on goroutine %s", i, order[i], ids[i], want, ids[0])
		}
	}
}

// TestCloseWithHandlerMidWait: Close returns while a handler is parked on
// its context, and every goroutine the connection started is gone.
func TestCloseWithHandlerMidWait(t *testing.T) {
	trs := newPair(t, 2)
	entered := make(chan struct{})
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	call := make(chan error, 1)
	go func() {
		_, err := trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{})
		call <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		trs[2].Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung behind a handler waiting on its context")
	}
	if err := <-call; err == nil {
		t.Fatal("call into a closed transport succeeded")
	}
	trs[1].Close()
	// Close waited for them to finish; give the last one its final return.
	waitFor(t, func() bool { return serving() == 0 })
}
