package node_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/faultproxy"
	"siterecovery/internal/lockmgr"
	"siterecovery/internal/node"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/transport"
	"siterecovery/internal/transport/tcpnet"
	"siterecovery/internal/txn"
)

// These tests pin what "Commit returns at the durable decision" promises over
// real sockets: no transaction can observe the gap between the coordinator's
// reply and a participant's install, and a decision frame that never arrives
// is fetched by the participant itself.

const (
	decisionJanitorInterval = 50 * time.Millisecond
	decisionJanitorStaleAge = 250 * time.Millisecond
)

// newHookedTrio is newTrio with the pieces node.New does not expose: a lock
// policy, 2PC hooks at site 1, and — with a proxy — site 1's link to site 2
// routed through a faultproxy. It assembles each site the way node.New does.
func newHookedTrio(t *testing.T, hub *obs.Hub, policy lockmgr.Policy, hooks node.Hooks, proxy *faultproxy.Proxy) map[proto.SiteID]*node.Site {
	t.Helper()
	return newTrioOver(t, xyEverywhere, hub, policy, hooks, proxy, nil)
}

// newTrioOver is newHookedTrio over placement, with wrap, when non-nil,
// between site 3's transport and its handler.
func newTrioOver(t *testing.T, placement map[proto.Item][]proto.SiteID, hub *obs.Hub, policy lockmgr.Policy, hooks node.Hooks,
	proxy *faultproxy.Proxy, wrap func(transport.Handler) transport.Handler) map[proto.SiteID]*node.Site {
	t.Helper()
	all := []proto.SiteID{1, 2, 3}
	listeners := map[proto.SiteID]net.Listener{}
	addrs := map[proto.SiteID]string{}
	for _, id := range all {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id], addrs[id] = ln, ln.Addr().String()
	}
	cat, err := replication.NewCatalog(all, placement)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[proto.SiteID]*node.Site{}
	for _, id := range all {
		env := node.Env{Catalog: cat, Seq: txn.NewStridedSequencer(id, len(all)), Seed: 1}
		dial := addrs
		if id == 1 {
			env.Hooks = hooks
			if proxy != nil {
				via, err := proxy.AddLink(1, 2, addrs[2])
				if err != nil {
					t.Fatal(err)
				}
				dial = map[proto.SiteID]string{1: addrs[1], 2: via, 3: addrs[3]}
			}
		}
		tr := tcpnet.New(tcpnet.Config{Self: id, Addrs: dial, Listener: listeners[id], Obs: hub, Lamport: env.Seq.HighCommitSeq})
		env.Net = tr
		s, err := node.NewSite(env, node.SiteConfig{
			Site:             id,
			LockPolicy:       policy,
			LockTimeout:      2 * time.Second,
			JanitorInterval:  decisionJanitorInterval,
			JanitorStaleAge:  decisionJanitorStaleAge,
			DetectorDebounce: 20 * time.Millisecond,
			Obs:              hub,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := transport.Handler(s.Handle)
		if id == 3 && wrap != nil {
			h = wrap(h)
		}
		tr.SetHandler(h)
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		s.Start()
		t.Cleanup(func() {
			s.Stop()
			tr.Close()
		})
		sites[id] = s
	}
	return sites
}

// TestReadAfterCommitSeesTheWriteEverywhere: a write committed at site 1 and
// a read started at site 2 the moment Exec returns. Site 2 may not have the
// decision yet, but it voted, so it holds the exclusive lock: the reader
// waits for the install and returns the new value, every time, under both
// deadlock policies. The reader's lock wait asks site 1 for the decision
// (lockmgr.Config.Waiting), so it waits about one round trip, not for
// tcpnet's sweep: the 1 000 rounds take less than 1 000 times the longest a
// post nobody asks for waits before the sweep may write it (postBound).
func TestReadAfterCommitSeesTheWriteEverywhere(t *testing.T) {
	const rounds, postBound = 1000, time.Millisecond // tcpnet's postBound
	for name, policy := range map[string]lockmgr.Policy{"timeout": lockmgr.PolicyTimeout, "wound-wait": lockmgr.PolicyWoundWait} {
		t.Run(name, func(t *testing.T) {
			sites := newHookedTrio(t, nil, policy, node.Hooks{}, nil)
			start := time.Now()
			for round := 1; round <= rounds; round++ {
				want := proto.Value(round)
				nodeWrite(t, sites[1], "x", want)
				if got := nodeRead(t, sites[2], "x"); got != want {
					t.Fatalf("round %d: x read at site 2 right after the commit at site 1 = %d, want %d", round, got, want)
				}
			}
			if took := time.Since(start); took > rounds*postBound && !raceEnabled {
				t.Fatalf("%d rounds took %v, want under %v: a read behind a decision waited for the sweep, not for its ask", rounds, took, rounds*postBound)
			}
		})
	}
}

// waitDecided blocks until no site holds a prepared transaction whose
// decision has not landed: what a non-transactional look at the copies has
// to wait for now that a commit's reply does not.
func waitDecided(t *testing.T, within time.Duration, sites ...*node.Site) {
	t.Helper()
	deadline := time.Now().Add(within)
	for _, s := range sites {
		for s.DM.Prepared() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("site %v still holds %d prepared transactions after %v", s.ID, s.DM.Prepared(), within)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestStalledDecisionIsFetchedByTheParticipant wedges the coordinator's link
// to one participant from the decision frame on (the stall goes in after the
// commit record is logged, before any decision is sent). The client is
// answered all the same; the stranded participant stays prepared, holding
// its lock, until its janitor asks the coordinator over the healthy reverse
// link — within the stale age plus a sweep — and then every replica agrees.
// The decision frame that finally arrives when the stall clears is a
// duplicate and changes nothing.
func TestStalledDecisionIsFetchedByTheParticipant(t *testing.T) {
	proxy := faultproxy.New()
	defer proxy.Close()
	var stallNext atomic.Bool
	stallNext.Store(true)
	hub := obs.NewHub(obs.Options{})
	sites := newHookedTrio(t, hub, lockmgr.PolicyWoundWait, node.Hooks{
		OnDecided: func(proto.SiteID, proto.TxnID) {
			if !stallNext.CompareAndSwap(true, false) {
				return
			}
			if err := proxy.SetFault(1, 2, faultproxy.Fault{Stall: true}); err != nil {
				t.Error(err)
			}
		},
	}, proxy)

	begin := time.Now()
	nodeWrite(t, sites[1], "x", 41)
	if answered := time.Since(begin); answered > decisionJanitorStaleAge {
		t.Fatalf("the client waited %v: the commit did not return at the decision", answered)
	}
	if got := sites[2].DM.Prepared(); got != 1 {
		t.Fatalf("site 2 holds %d prepared transactions right after the reply, want the 1 whose decision is stalled", got)
	}
	if v, _, err := sites[2].Store.Committed("x"); err != nil || v == 41 {
		t.Fatalf("site 2's copy = (%d, %v) before any decision reached it", v, err)
	}

	// A transaction at site 2 cannot see the gap: it waits on the lock and
	// reads the new value once the janitor has resolved the transaction.
	if got := nodeRead(t, sites[2], "x"); got != 41 {
		t.Fatalf("x read at the stranded participant = %d, want 41", got)
	}
	waitDecided(t, decisionJanitorStaleAge+2*decisionJanitorInterval+time.Second, sites[1], sites[2], sites[3])
	if resolved := time.Since(begin); resolved > decisionJanitorStaleAge+decisionJanitorInterval+time.Second {
		t.Errorf("the participant resolved after %v, want about the stale age (%v) plus a sweep (%v)",
			resolved, decisionJanitorStaleAge, decisionJanitorInterval)
	}
	if got := hub.Value(2, "dm", "forced.commit"); got != 1 {
		t.Errorf("site 2 dm/forced.commit = %d, want one forced commit", got)
	}
	for id, s := range sites {
		if v, _, err := s.Store.Committed("x"); err != nil || v != 41 {
			t.Errorf("x at site %v = (%d, %v), want 41", id, v, err)
		}
	}

	// Clear the stall: the stale decision frame lands on a transaction
	// already committed, and the link carries the next commit normally.
	if err := proxy.SetFault(1, 2, faultproxy.Fault{}); err != nil {
		t.Fatal(err)
	}
	nodeWrite(t, sites[1], "x", 42)
	waitDecided(t, time.Second, sites[1], sites[2], sites[3])
	for id, s := range sites {
		if v, _, err := s.Store.Committed("x"); err != nil || v != 42 {
			t.Errorf("x at site %v after the stall cleared = (%d, %v), want 42", id, v, err)
		}
	}
}
