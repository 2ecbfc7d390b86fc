package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/faultproxy"
	"siterecovery/internal/proto"
	"siterecovery/internal/trace"
)

// The coordinator answers its client at the durable decision and posts the
// decision to the participants without waiting for them. These tests kill a
// process inside the window that opens — deterministically, by holding the
// decision frame in a fault proxy — and check that the paper's machinery
// closes it: the janitor's decision query against a respawned coordinator,
// and RecoverInDoubt at a respawned participant.

// decisionCluster is a 3-site cluster whose site 1 reaches the given peers
// (site indices) through proxy, every such link wedged before its first byte.
func decisionCluster(t *testing.T, proxy *faultproxy.Proxy, via ...int) *e2eCluster {
	t.Helper()
	c := newE2ECluster(t, buildSrnode(t), t.TempDir())
	spec := fmt.Sprintf("1=%s", c.peerAddrs[0])
	for i := 1; i < len(c.peerAddrs); i++ {
		addr := c.peerAddrs[i]
		for _, v := range via {
			if v == i {
				var err error
				if addr, err = proxy.AddLink(1, proto.SiteID(i+1), c.peerAddrs[i]); err != nil {
					t.Fatal(err)
				}
				if err := proxy.SetFault(1, proto.SiteID(i+1), faultproxy.Fault{Stall: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
		spec += fmt.Sprintf(",%d=%s", i+1, addr)
	}
	c.peerSpecs = map[int]string{0: spec}
	for i := range c.peerAddrs {
		c.spawn(t, i, false)
	}
	for i := range c.peerAddrs {
		waitOperational(t, c.controlAddrs[i])
	}
	return c
}

func preparedAt(t *testing.T, ctrl string) int {
	t.Helper()
	n, err := prepared(ctrl)
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	return n
}

// letVoteHoldDecision lets exactly one frame through the wedged link from
// site 1 to site `to`+1 — the batch that carries the prepare — by raising
// the stall's byte budget a byte at a time until the participant reports a
// prepared transaction. The budget is then spent, so whatever the
// coordinator writes next on that link, the decision, is held in the proxy.
func letVoteHoldDecision(t *testing.T, c *e2eCluster, proxy *faultproxy.Proxy, to int) {
	t.Helper()
	for budget := int64(1); preparedAt(t, c.controlAddrs[to]) == 0; budget++ {
		if budget > 4096 {
			t.Fatalf("site %d never prepared with %d bytes let through", to+1, budget)
		}
		if err := proxy.SetFault(1, proto.SiteID(to+1), faultproxy.Fault{Stall: true, StallAfter: budget}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// execAsync starts POST /exec at site 1 and returns where its status lands.
func execAsync(c *e2eCluster, path string) <-chan int {
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+c.controlAddrs[0]+path, "", nil)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

func waitExec(t *testing.T, done <-chan int) {
	t.Helper()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("exec at site 1 answered %d, want 200: the client is answered at the decision, held frames or not", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exec at site 1 never answered: the coordinator is waiting for an acknowledgement")
	}
}

func checkMergedTrace(t *testing.T, c *e2eCluster) {
	t.Helper()
	merged := trace.Merge(c.streams(t)...)
	if len(merged.Violations) != 0 {
		t.Fatalf("causal merge found violations: %v", merged.Violations)
	}
	if fails := chaos.CheckTrace(merged, chaos.TraceSuite()); len(fails) != 0 {
		t.Fatalf("trace invariants failed: %v", fails)
	}
}

// TestE2ECoordinatorKilledAfterReply: both participants have voted, the
// coordinator has logged the decision and answered its client, and is
// SIGKILLed before either decision frame gets anywhere. The participants sit
// prepared — classic 2PC blocking, no witness knows the outcome — until the
// coordinator is respawned over its statedir and recovers; then their
// janitors' decision queries are answered from its log and they commit.
func TestE2ECoordinatorKilledAfterReply(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}
	proxy := faultproxy.New()
	defer proxy.Close()
	c := decisionCluster(t, proxy, 1, 2)

	done := execAsync(c, "/exec?item=x&value=41")
	letVoteHoldDecision(t, c, proxy, 1)
	letVoteHoldDecision(t, c, proxy, 2)
	waitExec(t, done)
	c.kill(0) // the held decision frames die with its connections

	for _, p := range []int{1, 2} {
		if got := preparedAt(t, c.controlAddrs[p]); got != 1 {
			t.Fatalf("site %d holds %d prepared transactions after the coordinator died, want 1", p+1, got)
		}
		if st := getStorage(t, c.controlAddrs[p], "x"); st.Value == 41 {
			t.Fatalf("site %d installed x=41 without a decision", p+1)
		}
	}

	proxy.ClearAll()
	c.spawn(t, 0, true)
	c.waitReachable(t, 0)
	if code, body := post(t, c.controlAddrs[0], "/recover"); code != http.StatusOK {
		t.Fatalf("recover site 1: %d %s", code, body)
	}
	c.waitDecided(t)
	for i, ctrl := range c.controlAddrs {
		if st := getStorage(t, ctrl, "x"); st.Value != 41 || st.Unreadable {
			t.Errorf("x at site %d = %+v, want 41 and readable", i+1, st)
		}
		if got := readItem(t, ctrl, "x"); got != 41 {
			t.Errorf("x read at site %d = %d, want 41", i+1, got)
		}
	}
	checkMergedTrace(t, c)
}

// TestE2EParticipantKilledBetweenVoteAndDecision: site 3 has voted, the
// coordinator has committed and answered its client, and site 3 is SIGKILLed
// with the decision frame still held on the link. Respawned over its
// statedir it finds a prepare record without an outcome: /recover reports it
// in doubt, asks the coordinator, redoes the write from the prepare record,
// and the replicas converge.
func TestE2EParticipantKilledBetweenVoteAndDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}
	proxy := faultproxy.New()
	defer proxy.Close()
	c := decisionCluster(t, proxy, 2)

	done := execAsync(c, "/exec?item=x&value=41")
	letVoteHoldDecision(t, c, proxy, 2)
	waitExec(t, done)
	if got := preparedAt(t, c.controlAddrs[2]); got != 1 {
		t.Fatalf("site 3 holds %d prepared transactions with its decision held, want 1", got)
	}
	c.kill(2)
	proxy.ClearAll()

	c.spawn(t, 2, true)
	c.waitReachable(t, 2)
	code, body := post(t, c.controlAddrs[2], "/recover")
	if code != http.StatusOK {
		t.Fatalf("recover site 3: %d %s", code, body)
	}
	var report struct {
		InDoubt int `json:"inDoubt"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("recover report %s: %v", body, err)
	}
	if report.InDoubt < 1 {
		t.Fatalf("recover report %s: inDoubt = %d, want >= 1 (the vote whose decision never arrived)", body, report.InDoubt)
	}
	c.waitDecided(t)
	for i, ctrl := range c.controlAddrs {
		if st := getStorage(t, ctrl, "x"); st.Value != 41 || st.Unreadable {
			t.Errorf("x at site %d = %+v, want 41 and readable", i+1, st)
		}
		if got := readItem(t, ctrl, "x"); got != 41 {
			t.Errorf("x read at site %d = %d, want 41", i+1, got)
		}
	}
	checkMergedTrace(t, c)
}
