package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"siterecovery/internal/netsim"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
	"siterecovery/internal/transport/tcpnet"
)

var errBoom = errors.New("boom")

// failed stops a fan-out at the first failure.
func failed(r *transport.Result) bool { return r.Err != nil }

// TestFanoutSequentialHaltsEarly: where every result is complete when its
// send returns (the simulator), the loop is a sequence of calls, and halt
// stops it.
func TestFanoutSequentialHaltsEarly(t *testing.T) {
	targets := []proto.SiteID{1, 2, 3, 4}
	var called []proto.SiteID
	results := transport.Fanout(nil, targets, func(site proto.SiteID) transport.Pending {
		called = append(called, site)
		if site == 2 {
			return transport.Done(nil, errBoom)
		}
		return transport.Done(proto.WriteResp{}, nil)
	}, failed)

	if want := []proto.SiteID{1, 2}; !reflect.DeepEqual(called, want) {
		t.Fatalf("called %v, want %v", called, want)
	}
	// Halted entries stay zero-valued: Site == 0 marks "never attempted",
	// which callers skip (real site IDs are 1-based).
	if results[2].Site != 0 || results[3].Site != 0 {
		t.Fatalf("halted entries not zero: %+v", results[2:])
	}
	if results[0].Site != 1 || results[0].Err != nil {
		t.Fatalf("result[0] = %+v", results[0])
	}
	if results[1].Site != 2 || !errors.Is(results[1].Err, errBoom) {
		t.Fatalf("result[1] = %+v", results[1])
	}
}

// waiter is a Pending's transport half that records when it is waited for.
type waiter struct {
	site  proto.SiteID
	err   error
	order *[]string
}

func (w waiter) Wait() (proto.Message, error) {
	*w.order = append(*w.order, fmt.Sprintf("wait %d", w.site))
	return proto.WriteResp{}, w.err
}

// TestFanoutParallelRunsAll: where replies come later (tcpnet), every target
// is sent to, in target order, before any reply is collected — a failing
// reply has nothing left to halt — and the sending site's own work, which
// runs inside its Wait, is taken first so it overlaps the peers'.
func TestFanoutParallelRunsAll(t *testing.T) {
	targets := []proto.SiteID{1, 2, 3, 4}
	var order []string
	results := transport.Fanout(nil, targets, func(site proto.SiteID) transport.Pending {
		order = append(order, fmt.Sprintf("send %d", site))
		w := waiter{site: site, order: &order}
		if site == 2 {
			w.err = errBoom
		}
		if site == 3 {
			return transport.Inline(w)
		}
		return transport.InFlight(w)
	}, func(r *transport.Result) bool {
		// The sender's bookkeeping on a reply runs when the reply is collected.
		order = append(order, fmt.Sprintf("reply %d", r.Site))
		return failed(r)
	})

	want := []string{
		"send 1", "send 2", "send 3", "send 4",
		"wait 3", "reply 3",
		"wait 1", "reply 1", "wait 2", "reply 2", "wait 4", "reply 4",
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v\nwant    %v", order, want)
	}
	for i, site := range targets {
		if results[i].Site != site {
			t.Fatalf("results[%d].Site = %v, want %v", i, results[i].Site, site)
		}
	}
	for i, r := range results {
		if (i == 1) != errors.Is(r.Err, errBoom) {
			t.Fatalf("results = %+v, want the failure at site 2 only", results)
		}
	}
}

// TestFanoutHaltsOnFailedSend: a send that fails outright is complete at
// once on any transport, and halts the loop while earlier requests are still
// in flight; those are collected all the same.
func TestFanoutHaltsOnFailedSend(t *testing.T) {
	var order []string
	results := transport.Fanout(nil, []proto.SiteID{1, 2, 3}, func(site proto.SiteID) transport.Pending {
		if site == 2 {
			return transport.Done(nil, errBoom)
		}
		return transport.InFlight(waiter{site: site, order: &order})
	}, failed)
	if want := []string{"wait 1"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if results[0].Resp == nil || !errors.Is(results[1].Err, errBoom) || results[2].Site != 0 {
		t.Fatalf("results = %+v", results)
	}
}

// TestFanoutOnNetsimIsTheSequentialLoop drives the loop over the simulator:
// Send is Call there, so the requests reach the handlers one at a time in
// target order and a halt leaves the later targets without a message — the
// counts the one-call-at-a-time loop produced.
func TestFanoutOnNetsimIsTheSequentialLoop(t *testing.T) {
	hub := obs.NewHub(obs.Options{})
	sim := netsim.New(netsim.Config{Obs: hub})
	var served []proto.SiteID
	for site := proto.SiteID(1); site <= 4; site++ {
		sim.Register(site, func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
			served = append(served, site)
			if site == 3 {
				return proto.PrepareResp{Vote: false}, nil
			}
			return proto.PrepareResp{Vote: true}, nil
		})
	}
	ctx := context.Background()
	results := transport.Fanout(nil, []proto.SiteID{1, 2, 3, 4}, func(to proto.SiteID) transport.Pending {
		return sim.Send(ctx, 1, to, proto.PrepareReq{})
	}, func(r *transport.Result) bool {
		if pr, ok := r.Resp.(proto.PrepareResp); r.Err == nil && ok && !pr.Vote {
			r.Err = errBoom
		}
		return failed(r)
	})

	if want := []proto.SiteID{1, 2, 3}; !reflect.DeepEqual(served, want) {
		t.Fatalf("served %v, want %v", served, want)
	}
	// Site 1 reached itself over the local bus: two messages crossed the
	// network, none to the halted site 4.
	if sent := hub.Value(1, "net", "sent.prepare"); sent != 2 {
		t.Fatalf("%d prepares crossed the network, want 2", sent)
	}
	if !errors.Is(results[2].Err, errBoom) || results[3].Site != 0 {
		t.Fatalf("results = %+v", results)
	}
}

// TestFanoutOnTCPStartsNoGoroutine: a three-target round over real sockets —
// the sender itself and two peers — leaves the goroutine count where it was,
// and serves the local target while the remote ones are in flight.
func TestFanoutOnTCPStartsNoGoroutine(t *testing.T) {
	addrs := map[proto.SiteID]string{}
	lns := map[proto.SiteID]net.Listener{}
	for site := proto.SiteID(1); site <= 3; site++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[site], addrs[site] = ln, ln.Addr().String()
	}
	remoteStarted := make(chan proto.SiteID, 2)
	release := make(chan struct{})
	trs := map[proto.SiteID]*tcpnet.Transport{}
	for site := proto.SiteID(1); site <= 3; site++ {
		tr := tcpnet.New(tcpnet.Config{Self: site, Addrs: addrs, Listener: lns[site], CallTimeout: 5 * time.Second})
		tr.SetHandler(func(ctx context.Context, from proto.SiteID, msg proto.Message) (proto.Message, error) {
			if _, held := msg.(proto.PrepareReq); held && site != 1 {
				remoteStarted <- site
				<-release
			} else if held {
				// The local target runs while both peers are at work.
				<-remoteStarted
				<-remoteStarted
				release <- struct{}{}
				release <- struct{}{}
			}
			return proto.ProbeResp{Operational: true, Session: proto.Session(site)}, nil
		})
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[site] = tr
	}
	ctx := context.Background()
	targets := []proto.SiteID{1, 2, 3}
	round := func(msg proto.Message) []transport.Result {
		return transport.Fanout(nil, targets, func(to proto.SiteID) transport.Pending {
			return trs[1].Send(ctx, 1, to, msg)
		}, failed)
	}
	// Warm up: dial both peers and let every serving side start its worker.
	for _, r := range round(proto.ProbeReq{}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	// A serving side starts a second worker if a request arrives before the
	// first has parked, so the count may move once more; it must then hold.
	var before, after int
	for attempt := 0; attempt < 10; attempt++ {
		before = runtime.NumGoroutine()
		results := round(proto.PrepareReq{})
		after = runtime.NumGoroutine()
		for i, r := range results {
			pr, ok := r.Resp.(proto.ProbeResp)
			if r.Err != nil || !ok || pr.Session != proto.Session(targets[i]) {
				t.Fatalf("results[%d] = %+v", i, r)
			}
		}
		if after == before {
			return
		}
	}
	t.Fatalf("goroutines: %d before a round, %d after, ten rounds running", before, after)
}
