package tcpnet

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// A site that must wait asks for what it waits on (AskPeers): these tests pin
// what an ask brings back, what it does not, and that its dial and its
// writes end with the transport.

// holdPost posts a commit from tr to site to and dates the post so far ahead
// that no sweep finds it due: only a frame, an ask or Close writes it. It
// reports false if the sweep wrote it, or has a flush on its way, before it
// could be held back.
func holdPost(t *testing.T, tr *Transport, to proto.SiteID) bool {
	t.Helper()
	if err := tr.Post(context.Background(), tr.cfg.Self, to, proto.CommitReq{}); err != nil {
		t.Fatal(err)
	}
	pc := peerOf(tr, to)
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if pc.posts == 0 || pc.flushing.Load() {
		return false
	}
	pc.since.Store(tr.now() + int64(time.Hour))
	return true
}

// askedPeer is site 2, a real transport with a hub, whose peer site 1 is a
// fake peer that answers every request and reports each frame it reads on
// frames; ask writes one ask frame from site 1 to site 2, and a probe after
// it, on a raw connection, and returns once the probe is answered: site 2
// serves the frames of a connection in order, so by then it has handled
// the ask.
type askedPeer struct {
	tr     *Transport
	hub    *obs.Hub
	frames chan reqHeader
	ask    func()
}

func newAskedPeer(t *testing.T) *askedPeer {
	a := &askedPeer{hub: obs.NewHub(obs.Options{}), frames: make(chan reqHeader, 16)}
	peer := startFakePeer(t, func(n int, c net.Conn, req reqHeader) bool {
		a.frames <- req
		return req.oneWay || answerWithID(c, req)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.tr = New(Config{Self: 2, Addrs: map[proto.SiteID]string{1: peer.addr, 2: ln.Addr().String()},
		Listener: ln, DialRetries: 1, CallTimeout: 2 * time.Second, Obs: a.hub})
	a.tr.SetHandler(func(context.Context, proto.SiteID, proto.Message) (proto.Message, error) {
		return proto.ProbeResp{}, nil
	})
	if err := a.tr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.tr.Close() })
	// Site 2's connection to site 1, where its outbox for site 1 lives.
	if _, err := a.tr.Call(context.Background(), 2, 1, proto.ProbeReq{}); err != nil {
		t.Fatal(err)
	}
	<-a.frames

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	askOf1, _ := sealFrame(appendReqHeader(make([]byte, 4), reqHeader{from: 1, oneWay: true, ask: true}))
	probe, err := appendRequest(nil, reqHeader{id: 9, from: 1, budgetUS: 2_000_000}, proto.ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	a.ask = func() {
		t.Helper()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write(append(append([]byte(nil), askOf1...), probe...)); err != nil {
			t.Fatal(err)
		}
		raw, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("read the probe's reply: %v", err)
		}
		if id, _, _, err := parseRespHeader(raw); err != nil || id != 9 {
			t.Fatalf("the frame after an ask answers request %d (%v), want the probe's 9: an ask gets no reply", id, err)
		}
	}
	return a
}

// An ask makes the peer write its outbox at once: a post the sweep would
// never write reaches the asker, counted as asked, in a median of five
// rounds well inside postBound + sweepTick, the most a post that nobody asks
// for may wait.
func TestAskWritesThePeersOutboxAtOnce(t *testing.T) {
	a := newAskedPeer(t)
	var took []time.Duration
	for round := 0; len(took) < 5; round++ {
		if round == 20 {
			t.Fatal("in 20 rounds the sweep wrote every held post first")
		}
		if !holdPost(t, a.tr, 1) {
			<-a.frames // the sweep wrote it: not this test's round
			continue
		}
		start := time.Now()
		a.ask()
		select {
		case req := <-a.frames:
			if !req.oneWay || req.ask {
				t.Fatalf("site 1 read %+v, want the posted commit", req)
			}
			took = append(took, time.Since(start))
		case <-time.After(2 * time.Second):
			t.Fatal("an ask did not bring back the post held in the peer's outbox")
		}
	}
	// Each flush counts its posts once its write is done.
	waitUntil(t, "the 5 posts are counted as asked for", func() bool { return a.hub.Value(2, "net", "posts_asked") == 5 })
	slices.Sort(took)
	if median := took[len(took)/2]; median > sweepTick/2 {
		t.Fatalf("asks brought their posts back after %v, want well inside postBound + sweepTick (%v)", took, postBound+sweepTick)
	}
}

// An ask to a peer with nothing queued for the asker brings no frame back
// and starts no flush.
func TestAskToAnIdlePeerBringsNothingBack(t *testing.T) {
	a := newAskedPeer(t)
	for i := 0; i < 3; i++ {
		a.ask()
	}
	// One more acknowledged call from site 2: if any ask had written
	// anything, it reached site 1 before this call's frame.
	if _, err := a.tr.Call(context.Background(), 2, 1, proto.ProbeReq{}); err != nil {
		t.Fatal(err)
	}
	if req := <-a.frames; req.oneWay {
		t.Fatalf("site 1 read %+v after asking a peer with nothing queued, want only the probe", req)
	}
	if pc := peerOf(a.tr, 1); pc.flushing.Load() {
		t.Fatal("an ask to an empty outbox started a flush")
	}
	if got := a.hub.Value(2, "net", "posts_asked"); got != 0 {
		t.Fatalf("net/posts_asked = %d, want 0", got)
	}
}

// AskPeers asks a site it has no connection to over one it dials, on a
// goroutine of its own (Close waiting for that dial:
// TestCloseWaitsForAnAsksDial).
func TestAskDialsAPeerNotYetDialed(t *testing.T) {
	frames := make(chan reqHeader, 4)
	peer := startFakePeer(t, func(n int, c net.Conn, req reqHeader) bool {
		frames <- req
		return true
	})
	hub := obs.NewHub(obs.Options{})
	tr := New(Config{Self: 1, Addrs: map[proto.SiteID]string{1: "127.0.0.1:1", 2: peer.addr}, DialRetries: 1, CallTimeout: 2 * time.Second, Obs: hub})
	t.Cleanup(func() { tr.Close() })
	tr.AskPeers()
	select {
	case req := <-frames:
		if !req.ask || !req.oneWay || req.from != 1 {
			t.Fatalf("site 2 read %+v, want site 1's ask", req)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AskPeers never dialed the peer it had no connection to")
	}
	if _, accepts := peer.counts(); accepts != 1 {
		t.Fatalf("peer accepted %d connections, want the 1 the ask dialed", accepts)
	}
	waitUntil(t, "the ask is counted", func() bool { return hub.Value(1, "net", "asks_sent") == 1 })
}

// An ask dials once: a site that refuses the connection has nothing queued
// for the asker, and every call to the site meanwhile waits on the ask's
// dial, so a refused ask gives up at once instead of retrying.
func TestAskToARefusingSiteDialsOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	tr := New(Config{Self: 1, Addrs: map[proto.SiteID]string{2: refused}, DialRetries: 3, DialRetryWait: time.Minute})
	t.Cleanup(func() { tr.Close() })
	tr.AskPeers()
	waitUntil(t, "the ask gives up on the refusing site", func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return !tr.asking[2] && tr.dialing[2] == nil
	})
}

// oneProc runs the rest of the test with GOMAXPROCS 1.
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
