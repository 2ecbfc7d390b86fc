package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// newTracedPair starts two transports with live hubs and fixed Lamport
// clocks, site 2 echoing probes.
func newTracedPair(t *testing.T) (trs map[proto.SiteID]*Transport, hubs map[proto.SiteID]*obs.Hub) {
	t.Helper()
	listeners := make(map[proto.SiteID]net.Listener, 2)
	addrs := make(map[proto.SiteID]string, 2)
	for i := 1; i <= 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[proto.SiteID(i)] = ln
		addrs[proto.SiteID(i)] = ln.Addr().String()
	}
	trs = make(map[proto.SiteID]*Transport, 2)
	hubs = make(map[proto.SiteID]*obs.Hub, 2)
	for i := 1; i <= 2; i++ {
		id := proto.SiteID(i)
		hub := obs.NewHub(obs.Options{})
		lam := uint64(100 * i)
		tr := New(Config{
			Self:        id,
			Addrs:       addrs,
			Listener:    listeners[id],
			CallTimeout: 2 * time.Second,
			Obs:         hub,
			Lamport:     func() uint64 { return lam },
		})
		tr.SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
			return proto.ProbeResp{Operational: true, Session: proto.Session(id)}, nil
		})
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[id] = tr
		hubs[id] = hub
	}
	return trs, hubs
}

// spanEvents filters a hub's ring down to span events.
func spanEvents(h *obs.Hub) []obs.Event {
	var out []obs.Event
	for _, e := range h.Tracer().Events() {
		if e.Type == obs.EvSpanStart || e.Type == obs.EvSpanFinish {
			out = append(out, e)
		}
	}
	return out
}

// TestCallPropagatesSpanContext drives one traced RPC and checks the full
// span contract: the client records start/finish under a fresh span whose
// parent and root came from the caller's context; the server records the
// SAME span ID with the same root; both sides stamp their own Lamport
// clocks; and the handler's context carries the span for nested calls.
func TestCallPropagatesSpanContext(t *testing.T) {
	trs, hubs := newTracedPair(t)

	var serverCtxSpan obs.SpanContext
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		serverCtxSpan, _ = obs.SpanFrom(ctx)
		return proto.ProbeResp{Operational: true}, nil
	})

	caller := obs.SpanContext{Root: 77, Span: obs.NewSpanID(1), Origin: 1}
	ctx := obs.WithSpan(context.Background(), caller)
	if _, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("Call: %v", err)
	}

	client := spanEvents(hubs[1])
	if len(client) != 2 {
		t.Fatalf("client span events = %d, want start+finish", len(client))
	}
	cs, cf := client[0], client[1]
	if cs.Type != obs.EvSpanStart || cf.Type != obs.EvSpanFinish {
		t.Fatalf("client events out of order: %v then %v", cs.Type, cf.Type)
	}
	if cs.Txn != 77 || cs.Parent != caller.Span || cs.Span == caller.Span || cs.Span == 0 {
		t.Errorf("client start = %+v; want root 77, parent %x, fresh span", cs, caller.Span)
	}
	if obs.SpanOrigin(cs.Span) != 1 {
		t.Errorf("client span %x not tagged with origin site 1", cs.Span)
	}
	if cs.Lamport != 100 || cs.Peer != 2 || cs.Site != 1 {
		t.Errorf("client start stamped %+v; want lamport 100, site1->site2", cs)
	}
	if side, kind, _, _ := obs.SpanSide(cs); side != obs.SideClient || kind != "probe" {
		t.Errorf("client start detail = %q", cs.Detail)
	}
	if cf.Span != cs.Span || cf.Dur <= 0 {
		t.Errorf("client finish = %+v; want same span with positive duration", cf)
	}

	server := spanEvents(hubs[2])
	if len(server) != 2 {
		t.Fatalf("server span events = %d, want start+finish", len(server))
	}
	ss := server[0]
	if ss.Span != cs.Span || ss.Txn != 77 || ss.Parent != caller.Span {
		t.Errorf("server start = %+v; want shared span %x under root 77", ss, cs.Span)
	}
	if ss.Lamport != 200 || ss.Site != 2 || ss.Peer != 1 {
		t.Errorf("server start stamped %+v; want lamport 200, site2 from site1", ss)
	}
	if side, _, _, _ := obs.SpanSide(ss); side != obs.SideServer {
		t.Errorf("server start detail = %q", ss.Detail)
	}
	if serverCtxSpan.Span != cs.Span || serverCtxSpan.Root != 77 {
		t.Errorf("handler ctx span = %+v; nested RPCs would lose their parent", serverCtxSpan)
	}
}

// TestSpanLamportFollowsSeq pins the order of a site's span events: in Seq
// order their Lamport stamps never fall. Site 1's Lamport source reads its
// value for the first span and then stalls, as a descheduled goroutine
// would, while the clock moves on and a second call records its spans. A
// stamp read outside the sequence step lands behind the newer ones; read
// inside it, the second call waits for the first.
func TestSpanLamportFollowsSeq(t *testing.T) {
	trs, hubs := newTracedPair(t)
	var (
		lam     atomic.Uint64
		stalled atomic.Bool
		paused  = make(chan struct{})
		resume  = make(chan struct{})
	)
	trs[1].cfg.Lamport = func() uint64 {
		v := lam.Load()
		if stalled.CompareAndSwap(false, true) {
			close(paused)
			<-resume
		}
		return v
	}

	first := make(chan error, 1)
	go func() {
		_, err := trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{})
		first <- err
	}()
	<-paused
	lam.Store(5)
	second := make(chan error, 1)
	go func() {
		_, err := trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{})
		second <- err
	}()
	// Let the second call run as far as it can while the first is stalled.
	select {
	case err := <-second:
		second <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(resume)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatalf("Call: %v", err)
		}
	}

	events := spanEvents(hubs[1])
	if len(events) != 4 {
		t.Fatalf("site 1 recorded %d span events, want 4", len(events))
	}
	for i := 1; i < len(events); i++ {
		if prev, e := events[i-1], events[i]; e.Lamport < prev.Lamport {
			t.Errorf("#%d lam=%d follows #%d lam=%d: Lamport falls in Seq order", e.Seq, e.Lamport, prev.Seq, prev.Lamport)
		}
	}
}

// TestUntracedPeerInterop pins frame compatibility in both directions: a
// hubless client sends no trace block to a traced server (no server span,
// call succeeds), and a traced client's trace block is carried through a
// hubless server's context without a hub. The header bytes say the same: no
// hub, flags 0 and nothing after it.
func TestUntracedPeerInterop(t *testing.T) {
	trs, hubs := newTracedPair(t)

	// Rebuild site 1 without a hub on the same address map.
	trs[1].Close()
	ln, err := net.Listen("tcp", trs[1].cfg.Addrs[1])
	if err != nil {
		t.Skipf("rebind %s: %v", trs[1].cfg.Addrs[1], err)
	}
	plain := New(Config{Self: 1, Addrs: trs[1].cfg.Addrs, Listener: ln, CallTimeout: 2 * time.Second})
	plain.SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		sc, _ := obs.SpanFrom(ctx)
		return proto.ProbeResp{Operational: true, Session: proto.Session(sc.Span)}, nil
	})
	if err := plain.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })

	// Hubless -> traced: succeeds, and the server records no span.
	if _, err := plain.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("hubless call to traced peer: %v", err)
	}
	if got := spanEvents(hubs[2]); len(got) != 0 {
		t.Errorf("traced server recorded %d span events for an untraced frame", len(got))
	}

	plainHdr := appendReqHeader(nil, reqHeader{id: 1, from: 1, budgetUS: 1})
	tracedHdr := appendReqHeader(nil, reqHeader{id: 1, from: 1, budgetUS: 1, traced: true, span: obs.SpanContext{Span: 9}})
	if want := []byte{4, 1, 2, 2, 0}; !bytes.Equal(plainHdr, want) {
		t.Errorf("untraced request header = %v, want %v (no trace block)", plainHdr, want)
	}
	if len(tracedHdr) <= len(plainHdr) {
		t.Errorf("traced header %v is no longer than the untraced %v", tracedHdr, plainHdr)
	}

	// Traced -> hubless: the span context still reaches the handler's ctx.
	caller := obs.SpanContext{Root: 9, Span: obs.NewSpanID(2), Origin: 2}
	resp, err := trs[2].Call(obs.WithSpan(context.Background(), caller), 2, 1, proto.ProbeReq{})
	if err != nil {
		t.Fatalf("traced call to hubless peer: %v", err)
	}
	if resp.(proto.ProbeResp).Session == 0 {
		t.Error("hubless server's handler ctx lost the propagated span")
	}
}

// TestFrameForwardCompat proves an "older peer" property at the frame level:
// a request from a newer build — fields this build does not know appended to
// the header, and more appended to the message body — is decoded and served
// cleanly, because header and body are each length-delimited and their
// decoders stop after the fields they know. This is the compatibility
// contract that lets a field ship without a version bump. A kind byte this
// build lacks is answered with an error, and the connection stays up.
func TestFrameForwardCompat(t *testing.T) {
	trs := newPair(t, 2)
	conn, err := net.Dial("tcp", trs[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)

	// exchange sends one hand-built request payload and returns the decoded
	// response.
	exchange := func(header, body []byte) (uint64, callResult) {
		t.Helper()
		payload := append(append([]byte{byte(len(header))}, header...), body...)
		frame, err := sealFrame(append(make([]byte, 4), payload...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		raw, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("read response frame: %v", err)
		}
		id, isErr, respBody, err := parseRespHeader(raw)
		if err != nil {
			t.Fatalf("decode response header: %v", err)
		}
		return id, decodeReply(isErr, respBody, nil)
	}

	future := []byte{0x2a, 0x03, 'n', 'e', 'w'}
	known := appendReqHeader(nil, reqHeader{
		id: 7, from: 1, budgetUS: 2_000_000,
		traced: true, span: obs.SpanContext{Root: 5, Span: 9, Parent: 1, Origin: 1},
	})[1:] // the fields, without their length byte
	probe, err := proto.EncodeMessage(proto.ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	id, resp := exchange(append(known, future...), append(probe, future...))
	if id != 7 {
		t.Errorf("response ID = %d, want 7", id)
	}
	if resp.err != nil {
		t.Fatalf("handler error: %v", resp.err)
	}
	if pr, ok := resp.msg.(proto.ProbeResp); !ok || !pr.Operational {
		t.Errorf("reply = %#v, want operational probe response", resp.msg)
	}

	known = appendReqHeader(nil, reqHeader{id: 8, from: 1, budgetUS: 2_000_000})[1:]
	id, resp = exchange(known, []byte{0xee, 1, 2, 3})
	if id != 8 || resp.err == nil {
		t.Errorf("unknown kind byte: response %d = %+v, want an error under ID 8", id, resp)
	}
	if _, resp = exchange(known, probe); resp.err != nil {
		t.Errorf("connection unusable after an unknown kind: %v", resp.err)
	}

	// An ask reaching a build without its bit: to that build it is a one-way
	// frame with a flag it does not know and a body that does not decode,
	// which is what this build sees in a flag past flagAsk. It is dropped:
	// nothing is dispatched, no response comes (the next frame read
	// answers the probe sent after it), and the connection stays up.
	var dispatched atomic.Int32
	trs[2].SetHandler(func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		dispatched.Add(1)
		return proto.ProbeResp{Operational: true}, nil
	})
	oldAsk := appendReqHeader(nil, reqHeader{from: 1, oneWay: true})[1:]
	oldAsk[len(oldAsk)-1] |= flagAsk << 1 // the flags byte ends an untraced header
	frame, err := sealFrame(append(append(make([]byte, 4), byte(len(oldAsk))), oldAsk...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	known = appendReqHeader(nil, reqHeader{id: 10, from: 1, budgetUS: 2_000_000})[1:]
	if id, resp = exchange(known, probe); id != 10 || resp.err != nil {
		t.Errorf("after an ask this build cannot read: response %d = %+v, want the probe's under ID 10", id, resp)
	}
	if got := dispatched.Load(); got != 1 {
		t.Errorf("%d requests dispatched, want only the probe", got)
	}

	// The response side of the same rule.
	respFrame := appendResponse(nil, 3, proto.ProbeResp{Operational: true, Session: 4}, nil)
	hdrLen := int(respFrame[4])
	payload := append([]byte{byte(hdrLen + len(future))}, respFrame[5:5+hdrLen]...)
	payload = append(append(payload, future...), respFrame[5+hdrLen:]...)
	payload = append(payload, future...)
	id, isErr, body, err := parseRespHeader(payload)
	if err != nil || id != 3 || isErr {
		t.Fatalf("response header with appended fields = %d, %v, %v", id, isErr, err)
	}
	if got := decodeReply(isErr, body, nil); got.err != nil || got.msg != (proto.ProbeResp{Operational: true, Session: 4}) {
		t.Errorf("response body with appended fields = %+v", got)
	}
}
