package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/chaos/proc"
	"siterecovery/internal/faultproxy"
	"siterecovery/internal/proto"
)

// The coordinator answers its client at the durable decision and posts the
// decision to the participants without waiting for them. These tests kill a
// process inside the window that opens — deterministically, by holding the
// decision frame in a fault proxy — and check that the paper's machinery
// closes it: the janitor's decision query against a respawned coordinator,
// and recovery's in-doubt step at a respawned participant.

// decisionCluster is a 3-site cluster of srnodes run with args, whose links
// all run through proxy, site 1's links to the given peers wedged before
// their first byte.
func decisionCluster(t *testing.T, proxy *faultproxy.Proxy, args []string, via ...proto.SiteID) *proc.Cluster {
	t.Helper()
	c := newCluster(t, proc.Config{Dir: t.TempDir(), Proxy: proxy, Args: args})
	for _, to := range via {
		must(t, proxy.SetFault(1, to, faultproxy.Fault{Stall: true}))
	}
	must(t, c.Start(context.Background()))
	return c
}

func preparedAt(t *testing.T, c *proc.Cluster, site proto.SiteID) int {
	t.Helper()
	var st struct {
		Prepared int `json:"prepared"`
	}
	must(t, c.GetJSON(context.Background(), site, "/status", &st))
	return st.Prepared
}

// letVoteHoldDecision lets exactly one frame through the wedged link from
// site 1 to site `to` — the batch that carries the prepare — by raising
// the stall's byte budget a byte at a time until the participant reports a
// prepared transaction. The budget is then spent, so whatever the
// coordinator writes next on that link, the decision, is held in the proxy.
func letVoteHoldDecision(t *testing.T, c *proc.Cluster, proxy *faultproxy.Proxy, to proto.SiteID) {
	t.Helper()
	for budget := int64(1); preparedAt(t, c, to) == 0; budget++ {
		if budget > 4096 {
			t.Fatalf("site %d never prepared with %d bytes let through", to, budget)
		}
		must(t, proxy.SetFault(1, to, faultproxy.Fault{Stall: true, StallAfter: budget}))
		time.Sleep(time.Millisecond)
	}
}

// execAsync starts POST /exec at site 1 and returns where its status lands.
func execAsync(c *proc.Cluster, path string) <-chan int {
	done := make(chan int, 1)
	go func() {
		code, _, _ := c.Post(context.Background(), 1, path)
		done <- code
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

// TestE2ETxnAnsweredWithDecisionHeld: POST /txn is answered at the commit
// point, so a decision frame held on its way to site 3 keeps the client
// waiting no more than it keeps /exec's: the reply is 200 while site 3 still
// holds the transaction prepared, and site 3 installs it once the frame is
// let go.
func TestE2ETxnAnsweredWithDecisionHeld(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}
	proxy := faultproxy.New()
	defer proxy.Close()
	c := decisionCluster(t, proxy, nil, 3)

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(c.URL(1)+"/txn", "application/json", strings.NewReader(`{"writes":[{"item":"x","value":41}]}`))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	letVoteHoldDecision(t, c, proxy, 3)
	waitExec(t, done)
	if got := preparedAt(t, c, 3); got != 1 {
		t.Fatalf("site 3 holds %d prepared transactions with its decision held, want 1", got)
	}
	proxy.ClearAll()
	checkConvergedX(t, c)
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
	ctx := context.Background()
	c := decisionCluster(t, proxy, nil, 2, 3)

	done := execAsync(c, "/exec?item=x&value=41")
	letVoteHoldDecision(t, c, proxy, 2)
	letVoteHoldDecision(t, c, proxy, 3)
	waitExec(t, done)
	c.Kill(1) // the held decision frames die with its connections

	for _, p := range []proto.SiteID{2, 3} {
		if got := preparedAt(t, c, p); got != 1 {
			t.Fatalf("site %d holds %d prepared transactions after the coordinator died, want 1", p, got)
		}
		if st := getStorage(t, c, p, "x"); st.Value == 41 {
			t.Fatalf("site %d installed x=41 without a decision", p)
		}
	}

	proxy.ClearAll()
	must(t, c.Respawn(ctx, 1))
	if code, body := post(t, c, 1, "/recover"); code != http.StatusOK {
		t.Fatalf("recover site 1: %d %s", code, body)
	}
	checkConvergedX(t, c)
}

// TestE2EParticipantKilledBetweenVoteAndDecision: site 3 has voted, the
// coordinator has committed and answered its client, and site 3 is SIGKILLed
// with the decision frame still held on the link. Respawned over its
// statedir it finds a prepare record without an outcome: /recover reports it
// in doubt, asks the coordinator, redoes the write from the prepare record,
// and the replicas converge.
func TestE2EParticipantKilledBetweenVoteAndDecision(t *testing.T) {
	participantKilledBetweenVoteAndDecision(t, nil)
}

// TestE2EParticipantKilledBetweenVoteAndDecisionDisk is the same kill on the
// crash-recover configuration, the disk engine under versiondiff. Recovery
// marks every copy, so only the redo of the re-adopted commit can make site
// 3's x current without a copy: /recover must report no data copies.
func TestE2EParticipantKilledBetweenVoteAndDecisionDisk(t *testing.T) {
	body := participantKilledBetweenVoteAndDecision(t, []string{"-store", "disk", "-identify", "versiondiff"})
	var report struct {
		DataCopies uint64 `json:"dataCopies"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("recover report %s: %v", body, err)
	}
	if report.DataCopies != 0 {
		t.Fatalf("recover report %s: dataCopies = %d, want 0 (the redo installed x locally)", body, report.DataCopies)
	}
}

// participantKilledBetweenVoteAndDecision runs the participant kill on
// srnodes run with args and returns site 3's /recover report.
func participantKilledBetweenVoteAndDecision(t *testing.T, args []string) []byte {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}
	proxy := faultproxy.New()
	defer proxy.Close()
	c := decisionCluster(t, proxy, args, 3)

	done := execAsync(c, "/exec?item=x&value=41")
	letVoteHoldDecision(t, c, proxy, 3)
	waitExec(t, done)
	if got := preparedAt(t, c, 3); got != 1 {
		t.Fatalf("site 3 holds %d prepared transactions with its decision held, want 1", got)
	}
	c.Kill(3)
	proxy.ClearAll()

	must(t, c.Respawn(context.Background(), 3))
	code, body := post(t, c, 3, "/recover")
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
	checkConvergedX(t, c)
	return body
}

// checkConvergedX requires every site, once no decision is in flight, to
// hold x=41 readable and to read it back, and the merged trace to be clean.
func checkConvergedX(t *testing.T, c *proc.Cluster) {
	t.Helper()
	must(t, c.WaitDecided(context.Background()))
	for site := proto.SiteID(1); site <= 3; site++ {
		if st := getStorage(t, c, site, "x"); st.Value != 41 || st.Unreadable {
			t.Errorf("x at site %d = %+v, want 41 and readable", site, st)
		}
		if got := readItem(t, c, site, "x"); got != 41 {
			t.Errorf("x read at site %d = %d, want 41", site, got)
		}
	}
	checkMergedTrace(t, c)
}
