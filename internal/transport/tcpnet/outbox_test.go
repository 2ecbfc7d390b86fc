package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"siterecovery/internal/lockmgr"
	"siterecovery/internal/proto"
)

// The outbox (package comment): Post queues its frame, the next frame to the
// same peer carries it in the same write, an ask from the peer has it written
// at once, and the transport's sweep writes what nothing carried or asked for
// within postBound + sweepTick.

// countingConn records every Write on a connection: how many frames each
// one held.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes []int
}

func (c *countingConn) Write(b []byte) (int, error) {
	frames := 0
	for p := b; len(p) >= 4; frames++ {
		p = p[min(len(p), 4+int(binary.BigEndian.Uint32(p))):]
	}
	c.mu.Lock()
	c.writes = append(c.writes, frames)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// take returns the writes recorded since the last take.
func (c *countingConn) take() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

// TestPostRidesTheNextFrame: a post and the request sent after it to the same
// peer leave in one write, and the serving side runs both, in that order, on
// the goroutine that read them. A round may lose the race to the sweep on a
// loaded machine, so the test looks for one round that did not.
func TestPostRidesTheNextFrame(t *testing.T) {
	trs := newPair(t, 2)
	type served struct{ kind, goid string }
	got := make(chan served, 2)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		got <- served{msg.Kind(), goid()}
		return proto.ProbeResp{}, nil
	})
	ctx := context.Background()
	if _, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{}); err != nil { // dial
		t.Fatal(err)
	}
	<-got
	pc := peerOf(trs[1], 2)
	cc := &countingConn{Conn: pc.conn}
	pc.wmu.Lock()
	pc.conn = cc
	pc.wmu.Unlock()

	for round := 0; round < 20; round++ {
		if err := trs[1].Post(ctx, 1, 2, proto.CommitReq{CommitSeq: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{}); err != nil {
			t.Fatal(err)
		}
		first, second := <-got, <-got
		if w := cc.take(); len(w) != 1 || w[0] != 2 {
			continue // the sweep wrote the post first: frames per write were w
		}
		if first.kind != "commit" || second.kind != "probe" || first.goid != second.goid {
			t.Fatalf("served %s on goroutine %s, then %s on %s: want the commit, then the probe, on one goroutine",
				first.kind, first.goid, second.kind, second.goid)
		}
		return
	}
	t.Fatal("in 20 rounds no post left in the same write as the request after it")
}

// TestLonePostIsFlushedWithinTheBound: a post that no later frame carries
// and nobody asks for reaches the handler once the sweep writes it, within
// postBound + sweepTick and some slack for a loaded machine.
func TestLonePostIsFlushedWithinTheBound(t *testing.T) {
	trs := newPair(t, 2)
	got := make(chan time.Time, 1)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		if msg.Kind() == "commit" {
			got <- time.Now()
		}
		return proto.ProbeResp{}, nil
	})
	ctx := context.Background()
	if _, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{}); err != nil { // dial
		t.Fatal(err)
	}
	const slack = 100 * time.Millisecond
	start := time.Now()
	if err := trs[1].Post(ctx, 1, 2, proto.CommitReq{}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if took := at.Sub(start); took > postBound+sweepTick+slack {
			t.Fatalf("lone post served %v after Post, want within %v", took, postBound+sweepTick+slack)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lone post never reached the handler")
	}
}

// TestQueuedDecisionDoesNotWaitOutALockTimeout: site 1's transaction holds
// an X lock at site 2 until its posted decision lands. Site 1 sends nothing
// more and site 2's lock manager asks nobody, so only the sweep can deliver
// it, and site 3's write of the same item must get the lock within the
// bound, not at the lock timeout.
func TestQueuedDecisionDoesNotWaitOutALockTimeout(t *testing.T) {
	trs := newPair(t, 3)
	const lockTimeout = 1500 * time.Millisecond
	locks := lockmgr.New(lockmgr.Config{Timeout: lockTimeout})
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		switch m := msg.(type) {
		case proto.BatchReq:
			for _, op := range m.Ops {
				if err := locks.Acquire(ctx, m.Txn.ID, string(op.Item), lockmgr.Exclusive); err != nil {
					return nil, err
				}
			}
			return proto.BatchResp{Vote: true}, nil
		case proto.CommitReq:
			locks.ReleaseAll(m.Txn.ID)
			return proto.CommitResp{}, nil
		case proto.ProbeReq:
			return proto.ProbeResp{}, nil
		}
		return nil, errors.New("unhandled")
	})
	ctx := context.Background()
	if _, err := trs[3].Call(ctx, 3, 2, proto.ProbeReq{}); err != nil { // dial
		t.Fatal(err)
	}
	batch := func(from proto.SiteID, id proto.TxnID) proto.BatchReq {
		return proto.BatchReq{Txn: proto.TxnMeta{ID: id, Origin: from}, Ops: []proto.BatchOp{{Item: "x", Value: 1}}, Prepare: true}
	}
	if _, err := trs[1].Call(ctx, 1, 2, batch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Post(ctx, 1, 2, proto.CommitReq{Txn: proto.TxnMeta{ID: 1, Origin: 1}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := trs[3].Call(ctx, 3, 2, batch(3, 2)); err != nil {
		t.Fatalf("second coordinator's write behind a queued decision: %v", err)
	}
	if took := time.Since(start); took > postBound+sweepTick+500*time.Millisecond {
		t.Fatalf("second coordinator's write took %v, want within %v of the post (lock timeout %v)", took, postBound+sweepTick, lockTimeout)
	}
}

// TestCloseWithAPostQueued: Close writes a post still in the outbox and
// returns with no flush on its way and none running.
func TestCloseWithAPostQueued(t *testing.T) {
	trs := newPair(t, 2)
	got := make(chan string, 2)
	trs[2].SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
		got <- msg.Kind()
		return proto.ProbeResp{}, nil
	})
	ctx := context.Background()
	if _, err := trs[1].Call(ctx, 1, 2, proto.ProbeReq{}); err != nil { // dial
		t.Fatal(err)
	}
	<-got
	pc := peerOf(trs[1], 2)
	if err := trs[1].Post(ctx, 1, 2, proto.CommitReq{}); err != nil {
		t.Fatal(err)
	}
	trs[1].Close()
	if pc.flushing.Load() {
		t.Fatal("a flush is still on its way after Close")
	}
	if left := leftRunning("tcpnet.(*peerConn).flushPosts("); left != "" {
		t.Fatalf("a flush is still running after Close:\n%s", left)
	}
	select {
	case kind := <-got:
		if kind != "commit" {
			t.Fatalf("served %s, want the queued commit", kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close dropped the queued post instead of writing it")
	}
}
