package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/proto"
	"siterecovery/internal/rawio"
)

// The client reads its own replies: these tests drive the read token through
// its hand-overs, its deadlines and its failures.

// fakePeer is a hand-written serving side on a loopback listener. Every
// request frame it reads goes to answer with its number, counted from 1
// across connections; answer writes whatever it likes to c, and returning
// false closes the connection.
type fakePeer struct {
	addr string

	mu              sync.Mutex
	frames, accepts int
}

func startFakePeer(t *testing.T, answer func(n int, c net.Conn, req reqHeader) bool) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	f := &fakePeer{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.accepts++
			f.mu.Unlock()
			go func(c net.Conn) {
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					payload, err := readFrame(r, nil)
					if err != nil {
						return
					}
					req, _, err := parseReqHeader(payload)
					if err != nil {
						return
					}
					f.mu.Lock()
					f.frames++
					n := f.frames
					f.mu.Unlock()
					if !answer(n, c, req) {
						return
					}
				}
			}(conn)
		}
	}()
	return f
}

// counts returns the frames read and the connections accepted so far.
func (f *fakePeer) counts() (frames, accepts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frames, f.accepts
}

// answerWithID writes the reply the fake peers give: a probe reply whose
// session is the request's ID, so a caller can tell its reply from another's.
func answerWithID(c net.Conn, req reqHeader) bool {
	_, err := c.Write(appendResponse(nil, req.id, proto.ProbeResp{Session: proto.Session(req.id)}, nil))
	return err == nil
}

// clientOf builds a transport for site 1 whose only peer, site 2, is at addr.
func clientOf(t *testing.T, addr string) *Transport {
	tr := New(Config{Self: 1, Addrs: map[proto.SiteID]string{2: addr}, DialRetries: 1, CallTimeout: 2 * time.Second})
	t.Cleanup(func() { tr.Close() })
	return tr
}

// peerOf returns tr's pooled connection to site to, nil if there is none.
func peerOf(tr *Transport, to proto.SiteID) *peerConn {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.peers[to]
}

// waitUntil polls cond, for states that send no event: who holds a token.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// tokenHeld reports whether a caller is reading pc.
func tokenHeld(pc *peerConn) bool { return len(pc.token) == 0 }

// assertLive fails unless pc is still tr's connection to site 2, alive, with
// no request left registered on it.
func assertLive(t *testing.T, tr *Transport, pc *peerConn) {
	t.Helper()
	if now := peerOf(tr, 2); now != pc {
		t.Fatal("the shared connection was replaced")
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead || len(pc.pending) != 0 {
		t.Fatalf("connection dead=%v with %d requests pending, want it live with none", pc.dead, len(pc.pending))
	}
}

// parkingPair is newPair with site 2 parking every PrepareReq until release
// is closed (or its context ends), after telling started; every other
// request gets a probe reply at once.
func parkingPair(t *testing.T) (client *Transport, started, release chan struct{}) {
	trs := newPair(t, 2)
	started, release = make(chan struct{}, 8), make(chan struct{})
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if _, parked := msg.(proto.PrepareReq); parked {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return proto.ProbeResp{Operational: true, Session: 7}, nil
	})
	if _, err := trs[1].Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil { // dial
		t.Fatal(err)
	}
	return trs[1], started, release
}

// A caller whose context has run out before its frame is written fails with
// its context's error, and the calls in flight on the shared connection keep
// it and get their replies. (The connection used to be dropped under them,
// failing a parked call with "connection lost", which txn takes for a site
// that is down.)
func TestExpiredCallerLeavesSharedConnAlone(t *testing.T) {
	client, started, release := parkingPair(t)
	pc := peerOf(client, 2)
	ctx := context.Background()
	parked := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, 1, 2, proto.PrepareReq{})
		parked <- err
	}()
	<-started

	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	_, err := client.Call(expired, 1, 2, proto.ProbeReq{})
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("call with an expired context: err = %v, want its context's error, not ErrSiteDown", err)
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("the parked call failed under the expired one: %v", err)
	}
	assertLive(t, client, pc)
}

// The token holder gives up at its deadline between frames and passes the
// token on: the caller waiting behind it takes over and reads its own reply.
func TestHolderTimeoutPassesTokenOn(t *testing.T) {
	trs := newPair(t, 2)
	started, holderDone := make(chan struct{}, 1), make(chan struct{})
	var gaveUp sync.Once
	holderGaveUp := func() { gaveUp.Do(func() { close(holderDone) }) }
	defer holderGaveUp() // a failure must not leave the handlers parked
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		// The holder's request and the waiter's are answered once the
		// holder has given up, so the holder's reply finds nobody waiting.
		var session proto.Session
		switch msg.(type) {
		case proto.PrepareReq:
			started <- struct{}{}
			session = 8
		case *proto.CommitReq:
			session = 9
		default:
			return proto.ProbeResp{Operational: true}, nil
		}
		select {
		case <-holderDone:
		case <-ctx.Done(): // the connection's read side moves on
			<-holderDone
		}
		return proto.ProbeResp{Operational: true, Session: session}, nil
	})
	client := trs[1]
	if _, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil { // dial
		t.Fatal(err)
	}
	pc := peerOf(client, 2)

	holder := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_, err := client.Call(ctx, 1, 2, proto.PrepareReq{})
		holder <- err
	}()
	<-started
	waitUntil(t, "the first caller reads", func() bool { return tokenHeld(pc) })

	waiter := make(chan error, 1)
	go func() {
		resp, err := client.Call(context.Background(), 1, 2, proto.CommitReq{})
		if err == nil && resp.(proto.ProbeResp).Session != 9 {
			err = fmt.Errorf("got reply %+v, not its own", resp)
		}
		waiter <- err
	}()
	if err := <-holder; !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("holder past its deadline: err = %v, want ErrSiteDown", err)
	}
	holderGaveUp()
	if err := <-waiter; err != nil {
		t.Fatalf("the waiter behind the holder: %v", err)
	}
	assertLive(t, client, pc)
}

// Cancelling the token holder's context ends its read within a sweep tick,
// not at its deadline, and leaves the connection to the next call.
func TestHolderCancelEndsReadAtOnce(t *testing.T) {
	client, started, release := parkingPair(t)
	defer close(release)
	pc := peerOf(client, 2)
	ctx, cancel := context.WithCancel(context.Background())
	holder := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, 1, 2, proto.PrepareReq{})
		holder <- err
	}()
	<-started
	waitUntil(t, "the caller reads", func() bool { return tokenHeld(pc) })
	begin := time.Now()
	cancel()
	err := <-holder
	if !errors.Is(err, proto.ErrSiteDown) || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled holder: err = %v, want the context's error as ErrSiteDown", err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("cancelled holder returned after %v, want within a tick (the call timeout is 2s)", d)
	}
	resp, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if err != nil || resp.(proto.ProbeResp).Session != 7 {
		t.Fatalf("the next call: %+v, %v", resp, err)
	}
	assertLive(t, client, pc)
}

// A reply that arrives after its caller gave up, while nobody reads, is
// dropped by the next reader, which goes on to its own reply.
func TestLateReplyIsDroppedByNextReader(t *testing.T) {
	answerFirst, lateWritten := make(chan struct{}), make(chan struct{})
	peer := startFakePeer(t, func(n int, c net.Conn, req reqHeader) bool {
		if n == 1 {
			<-answerFirst
			defer close(lateWritten)
		}
		return answerWithID(c, req)
	})
	client := clientOf(t, peer.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, 1, 2, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("unanswered call: err = %v, want ErrSiteDown", err)
	}
	pc := peerOf(client, 2)
	close(answerFirst)
	<-lateWritten

	resp, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if err != nil {
		t.Fatal(err)
	}
	// IDs are handed out in order: the second call's is 2.
	if got := resp.(proto.ProbeResp).Session; got != 2 {
		t.Fatalf("the next call got the reply to request %d, want 2", got)
	}
	assertLive(t, client, pc)
	if frames, accepts := peer.counts(); frames != 2 || accepts != 1 {
		t.Fatalf("peer read %d frames on %d connections, want 2 on 1", frames, accepts)
	}
}

// A deadline that ends the holder's read inside a frame leaves a stream
// nobody can resume: the connection is retired, the caller waiting behind
// the holder fails conclusively, and neither request is sent again.
func TestMidFrameDeadlineRetiresConn(t *testing.T) {
	peer := startFakePeer(t, func(n int, c net.Conn, req reqHeader) bool {
		switch n {
		case 1: // half a response, and nothing after it on this connection
			out := appendResponse(nil, req.id, proto.ProbeResp{Session: 1}, nil)
			_, err := c.Write(out[:6])
			return err == nil
		case 2:
			return true
		}
		return answerWithID(c, req)
	})
	client := clientOf(t, peer.addr)
	holder := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		_, err := client.Call(ctx, 1, 2, proto.ProbeReq{})
		holder <- err
	}()
	waitUntil(t, "the first caller reads", func() bool {
		pc := peerOf(client, 2)
		return pc != nil && tokenHeld(pc)
	})
	begin := time.Now()
	_, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{})
	if !errors.Is(err, proto.ErrSiteDown) || !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("waiter behind a torn frame: err = %v, want connection lost", err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("waiter failed after %v, want when the holder's 300ms deadline fired", d)
	}
	if err := <-holder; !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("holder: err = %v, want ErrSiteDown", err)
	}
	if frames, accepts := peer.counts(); frames != 2 || accepts != 1 {
		t.Fatalf("peer read %d frames on %d connections, want 2 on 1: a failed call was resent", frames, accepts)
	}
	if _, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("call after the retirement: %v", err)
	}
	if frames, accepts := peer.counts(); frames != 3 || accepts != 2 {
		t.Fatalf("peer read %d frames on %d connections, want 3 on 2", frames, accepts)
	}
}

// A peer that closes an idle pooled connection is redialed on the next call,
// not reported down: with nobody reading, the peek before the write is what
// sees the close.
func TestIdleConnClosedByPeerIsRedialed(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("an idle connection is peeked only on Linux")
	}
	closed := make(chan struct{}, 1)
	peer := startFakePeer(t, func(n int, c net.Conn, req reqHeader) bool {
		answerWithID(c, req)
		if n == 1 {
			closed <- struct{}{}
			return false
		}
		return true
	})
	client := clientOf(t, peer.addr)
	ctx := context.Background()
	if _, err := client.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatal(err)
	}
	<-closed
	pc := peerOf(client, 2)
	waitUntil(t, "the close reaches the client", func() bool { return rawio.PeerClosed(pc.conn) })
	if _, err := client.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
		t.Fatalf("call on a connection its peer closed while idle: %v", err)
	}
	if frames, accepts := peer.counts(); frames != 2 || accepts != 2 {
		t.Fatalf("peer read %d frames on %d connections, want 2 on 2", frames, accepts)
	}
}

// Eight callers share one connection, with short deadlines and cancels drawn
// at random, so the token changes hands in every way it can. Every call that
// succeeds gets its own reply, every one that fails fails on its own
// account, and the connection survives.
func TestTokenStress(t *testing.T) {
	const callers, calls = 8, 200
	trs := newPair(t, 2)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		// Answered even past the caller's budget, so that a call fails only on
		// its own account.
		req := msg.(proto.ReadReq)
		if d := time.Duration(req.Txn.ID%3) * time.Millisecond; d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		return proto.ReadResp{Value: proto.Value(req.Txn.ID)}, nil
	})
	client := trs[1]
	if _, err := client.Call(context.Background(), 1, 2, proto.ReadReq{Txn: proto.TxnMeta{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	pc := peerOf(client, 2)

	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, gaveUp := 0, 0
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 38))
			for i := 0; i < calls; i++ {
				id := proto.TxnID(1000*(g+1) + i)
				ctx, cancel := context.WithCancel(context.Background())
				switch rng.IntN(3) {
				case 1:
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.IntN(3000))*time.Microsecond)
				case 2:
					time.AfterFunc(time.Duration(rng.IntN(3000))*time.Microsecond, cancel)
				}
				resp, err := client.Call(ctx, 1, 2, proto.ReadReq{Txn: proto.TxnMeta{ID: id}})
				cancel()
				mu.Lock()
				switch {
				case err == nil && resp.(proto.ReadResp).Value == proto.Value(id):
					ok++
				case err == nil:
					t.Errorf("call %d got the reply to %d", id, resp.(proto.ReadResp).Value)
				case strings.Contains(err.Error(), "connection lost"),
					!errors.Is(err, proto.ErrSiteDown) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled):
					t.Errorf("call %d: %v, want a timeout or a cancel of its own", id, err)
				default:
					gaveUp++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatalf("no call succeeded (%d gave up)", gaveUp)
	}
	t.Logf("%d calls succeeded, %d gave up", ok, gaveUp)
	if now := peerOf(client, 2); now != pc || pc.dead {
		t.Fatal("the shared connection was dropped")
	}
}

// writeFails is a connection whose next Write first runs fail, as when
// another caller's read hits the end of the stream and retires the
// connection under a write that has registered but not yet written.
type writeFails struct {
	net.Conn
	fail func()
}

func (w *writeFails) Write(b []byte) (int, error) {
	w.fail()
	return w.Conn.Write(b)
}

// A connection retired between a call's registration and its write closes
// the call's reply channel. The call must not carry that channel on: not to
// the retry on a fresh connection, and not back into callPool when it
// returns an error, or a later call sees a spurious connection loss and the
// reader that claims its reply sends on a closed channel.
func TestWriteOnRetiredConnDropsClosedChannel(t *testing.T) {
	for _, tc := range []struct {
		name string
		// redial says whether the peer can be dialed again after the
		// failure: the call then retries and succeeds, or returns an error.
		redial bool
	}{{"retried", true}, {"returned", false}} {
		t.Run(tc.name, func(t *testing.T) {
			peer := startFakePeer(t, func(n int, c net.Conn, req reqHeader) bool { return answerWithID(c, req) })
			client := clientOf(t, peer.addr)
			ctx := context.Background()
			if _, err := client.Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			dead := ln.Addr().String()
			ln.Close()

			pc := peerOf(client, 2)
			pc.conn = &writeFails{Conn: pc.conn, fail: func() {
				if !tc.redial {
					client.cfg.Addrs[2] = dead
				}
				client.dropPeer(2, pc)
			}}
			_, err = client.Call(ctx, 1, 2, proto.ProbeReq{})
			if tc.redial && err != nil {
				t.Fatalf("call retried on a fresh connection: %v", err)
			}
			if !tc.redial && !errors.Is(err, proto.ErrSiteDown) {
				t.Fatalf("call with no peer to redial: err = %v, want ErrSiteDown", err)
			}
			client.cfg.Addrs[2] = peer.addr
			for i := 0; i < 20; i++ {
				resp, err := client.Call(ctx, 1, 2, proto.ProbeReq{})
				if err != nil {
					t.Fatalf("call %d after the retired write: %v", i, err)
				}
				if _, ok := resp.(proto.ProbeResp); !ok {
					t.Fatalf("call %d after the retired write: reply %T", i, resp)
				}
			}
			assertLive(t, client, peerOf(client, 2))
		})
	}
}
