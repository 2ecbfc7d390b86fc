package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// A token holder's reads end through the transport's sweep (sweepReads),
// and a write waits under a deadline only when the socket cannot take it at
// once: these tests pin when each gives up, what either leaves behind, and
// that neither outlives Close.

// silentPeer answers no request.
func silentPeer(n int, c net.Conn, req reqHeader) bool { return true }

// sweepIdle reports whether tr has no read sweep scheduled.
func sweepIdle(tr *Transport) bool { return !tr.sweeping.Load() }

// leftRunning returns the stack of every goroutine still inside one of fns.
func leftRunning(fns ...string) string {
	buf := make([]byte, 1<<20)
	stacks := buf[:runtime.Stack(buf, true)]
	var left []byte
	for _, g := range bytes.Split(stacks, []byte("\n\n")) {
		for _, fn := range fns {
			if bytes.Contains(g, []byte(fn)) {
				left = append(append(left, g...), "\n\n"...)
				break
			}
		}
	}
	return string(left)
}

// A holder that waits on a peer that never answers gives up no earlier than
// its deadline and, the sweep running every sweepTick, within one tick
// after it. Each try's deadline falls half a tick off the sweep's grid; the
// median of five tries must be within a tick, so that a loaded machine
// delaying a wake-up or two does not fail the test, and none may be early
// or near the call timeout.
func TestHolderGivesUpWithinATickOfItsDeadline(t *testing.T) {
	client := clientOf(t, startFakePeer(t, silentPeer).addr)
	var lates []time.Duration
	for try := 0; try < 5; try++ {
		deadline := time.Now().Add(time.Duration(4*try+4)*sweepTick + sweepTick/2)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		_, err := client.Call(ctx, 1, 2, proto.ProbeReq{})
		late := time.Since(deadline)
		cancel()
		if !errors.Is(err, proto.ErrSiteDown) {
			t.Fatalf("try %d: err = %v, want the deadline's ErrSiteDown", try, err)
		}
		if late < 0 {
			t.Fatalf("try %d: gave up %v before its deadline", try, -late)
		}
		if late > time.Second {
			t.Fatalf("try %d: gave up %v after its deadline, want within a tick (%v)", try, late, sweepTick)
		}
		lates = append(lates, late)
	}
	slices.Sort(lates)
	if median := lates[len(lates)/2]; median > sweepTick+5*time.Millisecond {
		t.Fatalf("holders gave up %v after their deadlines, want within a tick (%v)", lates, sweepTick)
	}
}

// A holder whose read the sweep ended leaves the read deadline in the past;
// the next holder clears it, so the connection keeps working: the next call
// on it is answered, and nothing was redialed or resent.
func TestSweptHolderLeavesAWorkingConn(t *testing.T) {
	peer := startFakePeer(t, func(n int, c net.Conn, req reqHeader) bool {
		if n == 1 {
			return true
		}
		return answerWithID(c, req)
	})
	client := clientOf(t, peer.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, 1, 2, proto.ProbeReq{}); !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("unanswered call: err = %v, want ErrSiteDown", err)
	}
	pc := peerOf(client, 2)
	pc.mu.Lock()
	cut := pc.cut
	pc.mu.Unlock()
	if !cut {
		t.Fatal("the unanswered call did not end through the sweep")
	}
	for i := 0; i < 3; i++ {
		resp, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{})
		if err != nil {
			t.Fatalf("call %d after the swept one: %v", i, err)
		}
		if got, want := resp.(proto.ProbeResp).Session, proto.Session(i+2); got != want {
			t.Fatalf("call %d got the reply to request %d, want %d", i, got, want)
		}
	}
	assertLive(t, client, pc)
	if frames, accepts := peer.counts(); frames != 4 || accepts != 1 {
		t.Fatalf("peer read %d frames on %d connections, want 4 on 1", frames, accepts)
	}
}

// A write into a peer that has stopped reading, once the send buffers are
// full, still ends at the caller's deadline: the non-blocking first try
// takes what room is left, and the rest waits under the write deadline.
func TestWriteToAStalledPeerEndsAtTheDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accept, and never read
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	client := clientOf(t, ln.Addr().String())
	pc, _, err := client.getPeer(context.Background(), 2, client.cfg.DialRetries)
	if err != nil {
		t.Fatal(err)
	}
	// Fill both ends' buffers with junk the peer will never read.
	junk := make([]byte, 1<<20)
	for filled := false; !filled; {
		pc.conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
		_, err := pc.conn.Write(junk)
		filled = errors.Is(err, os.ErrDeadlineExceeded)
		if err != nil && !filled {
			t.Fatal(err)
		}
	}
	pc.conn.SetWriteDeadline(time.Time{})

	// A frame larger than any room a last ACK can open: its write waits.
	big := proto.BatchReq{Ops: []proto.BatchOp{{Item: proto.Item(strings.Repeat("x", 900<<10))}}}
	deadline := time.Now().Add(80 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		_, err := client.Call(ctx, 1, 2, big)
		done <- err
	}()
	select {
	case err := <-done:
		late := time.Since(deadline)
		// Nothing left, and the error is the caller's own; or part of the
		// frame left, and the torn stream retired the connection.
		own := errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, proto.ErrSiteDown)
		if !own && !strings.Contains(fmt.Sprint(err), "write failed") {
			t.Fatalf("write into a full send buffer: err = %v, want the write to give up at the caller's deadline", err)
		}
		if late < 0 {
			t.Fatalf("the write gave up %v before its deadline", -late)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("a write into a full send buffer outlived its caller's deadline")
	}
}

// A transport whose reads have ended and whose outboxes are empty stops
// sweeping: the sweep that was scheduled for the last read finds nobody
// reading and schedules no other, and nothing schedules one until somebody
// reads or posts again. A lone post schedules one; the sweep writes it and,
// the outbox empty again, stops.
func TestIdleTransportStopsSweeping(t *testing.T) {
	trs := newPair(t, 2)
	client := trs[1]
	for i := 0; i < 3; i++ {
		if _, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{}); err != nil {
			t.Fatal(err)
		}
	}
	last := time.Now()
	waitUntil(t, "the sweep stops", func() bool { return sweepIdle(client) })
	idle := time.Now()
	if took := idle.Sub(last); took > sweepTick+500*time.Millisecond {
		t.Fatalf("the sweep stopped %v after the last read, want within a tick (%v)", took, sweepTick)
	}
	stayIdle := func(since time.Time) {
		t.Helper()
		waitUntil(t, "three ticks pass", func() bool {
			if !sweepIdle(client) {
				t.Fatal("an idle transport scheduled another sweep")
			}
			return time.Since(since) > 3*sweepTick
		})
		client.mu.Lock()
		scheduled := client.sweep.Stop()
		client.mu.Unlock()
		if scheduled {
			t.Fatal("an idle transport still has its sweep timer scheduled")
		}
	}
	stayIdle(idle)

	if err := client.Post(context.Background(), 1, 2, proto.CommitReq{}); err != nil {
		t.Fatal(err)
	}
	pc := peerOf(client, 2)
	waitUntil(t, "the sweep writes the lone post", func() bool { return pc.since.Load() == 0 })
	waitUntil(t, "the sweep stops again", func() bool { return sweepIdle(client) })
	stayIdle(time.Now())
}

// Close with a read sweep scheduled, with an outbox the sweep never finds
// due, and with a flush on its way to that outbox, stops the sweep, writes
// the post once, and returns with no sweep and no flush running.
func TestCloseStopsTheSweepAndTheOutboxFlush(t *testing.T) {
	peer := startFakePeer(t, silentPeer)
	client := clientOf(t, peer.addr)
	holder := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), 1, 2, proto.ProbeReq{})
		holder <- err
	}()
	waitUntil(t, "a caller reads", func() bool {
		pc := peerOf(client, 2)
		return pc != nil && tokenHeld(pc) && !sweepIdle(client)
	})
	pc := peerOf(client, 2)
	if !holdPost(t, client, 2) {
		t.Skip("the sweep wrote the post before the test could hold it back")
	}

	// A flush on its way, parked behind the write lock Close needs too. On
	// one P a goroutine Close did not wait for is still there when it
	// returns.
	oneProc(t)
	pc.wmu.Lock()
	pc.flushSoon(obs.PostAsked)
	closed := make(chan struct{})
	go func() {
		client.Close()
		close(closed)
	}()
	waitUntil(t, "Close shuts the transport", func() bool {
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.closed
	})
	pc.wmu.Unlock()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close never returned")
	}
	if err := <-holder; !errors.Is(err, proto.ErrSiteDown) {
		t.Fatalf("the reading caller: err = %v, want ErrSiteDown", err)
	}
	if client.sweep.Stop() {
		t.Fatal("the read sweep is still scheduled after Close")
	}
	if pc.flushing.Load() {
		t.Fatal("a flush is still on its way after Close")
	}
	if left := leftRunning("tcpnet.(*Transport).sweepReads(", "tcpnet.(*peerConn).flushPosts("); left != "" {
		t.Fatalf("a sweep or a flush outlived Close:\n%s", left)
	}
	waitUntil(t, "the queued post reaches the peer", func() bool {
		frames, _ := peer.counts()
		return frames == 2
	})
}
