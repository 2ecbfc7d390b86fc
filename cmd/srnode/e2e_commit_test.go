package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"siterecovery/internal/chaos/proc"
	"siterecovery/internal/load"
	"siterecovery/internal/proto"
)

var (
	sentLine      = regexp.MustCompile(`(?m)^sr_net_sent_([a-z_]+)_total\{[^}]*\} (\d+)$`)
	decisionsLine = regexp.MustCompile(`(?m)^sr_wal_decisions\{[^}]*\} (\d+)$`)
)

// scrape returns url's /metrics body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d %v", resp.StatusCode, err)
	}
	return string(body)
}

// sentCounts scrapes url's /metrics for the wire messages that site has
// sent so far, by message kind (sr_net_sent_<kind>_total).
func sentCounts(t *testing.T, url string) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, m := range sentLine.FindAllStringSubmatch(scrape(t, url), -1) {
		n, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("metric line %q: %v", m[0], err)
		}
		out[m[1]] += n
	}
	return out
}

// walDecisions scrapes how many transactions url's site holds a logged
// decision for (sr_wal_decisions).
func walDecisions(t *testing.T, url string) int {
	t.Helper()
	m := decisionsLine.FindStringSubmatch(scrape(t, url))
	if m == nil {
		t.Fatal("/metrics has no sr_wal_decisions line")
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatalf("sr_wal_decisions %q: %v", m[1], err)
	}
	return n
}

// TestE2ECommitPathWireCost pins the commit path's cost on the real TCP
// cluster, counted where the messages leave the coordinator: a 4-write
// transaction over 3 sites sends each of the 2 remote participants one batch
// (vote piggybacked) and one commit — no per-item write, no prepare round —
// and a read-only transaction never leaves the coordinator. The
// coordinator's decision index (sr_wal_decisions) grows by one per writing
// commit and not at all for a read-only one, which logs nothing.
func TestE2ECommitPathWireCost(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}
	c := newCluster(t, proc.Config{Dir: t.TempDir(), Args: []string{"-items", "a,b,c,d"}})
	must(t, c.Start(context.Background()))
	coord := c.URL(1)
	kinds := []string{"batch", "commit", "write", "prepare", "read", "abort"}

	decided := walDecisions(t, coord)
	before := sentCounts(t, coord)
	runTxn(t, c, 1, load.Txn{Writes: []load.Write{{Item: "d", Value: 4}, {Item: "b", Value: 2}, {Item: "c", Value: 3}, {Item: "a", Value: 1}}})
	after := sentCounts(t, coord)
	want := map[string]int{"batch": 2, "commit": 2}
	for _, kind := range kinds {
		if got := after[kind] - before[kind]; got != want[kind] {
			t.Errorf("4-write txn moved %d %q messages from the coordinator, want %d", got, kind, want[kind])
		}
	}
	if got := readItem(t, c, 3, "d"); got != 4 {
		t.Fatalf("d at site 3 = %d, want 4", got)
	}

	before = sentCounts(t, coord)
	runTxn(t, c, 1, load.Txn{Reads: []proto.Item{"a", "b", "c", "d"}})
	after = sentCounts(t, coord)
	for _, kind := range kinds {
		if got := after[kind] - before[kind]; got != 0 {
			t.Errorf("read-only txn moved %d %q messages from the coordinator, want 0", got, kind)
		}
	}

	for v := proto.Value(1); v <= 3; v++ {
		runTxn(t, c, 1, load.Txn{Writes: []load.Write{{Item: "a", Value: v}}})
	}
	if got := walDecisions(t, coord) - decided; got != 4 {
		t.Errorf("sr_wal_decisions rose by %d over 4 writing commits and 1 read-only, want 4", got)
	}
}

// TestE2EStatedirPersistFailureFailStops points one site's wal.jsonl at
// /dev/full, where every write returns ENOSPC. The site cannot force its
// prepare record, so it must halt — exit non-zero naming the error — rather
// than vote yes on, or acknowledge, a commit it could not make durable.
func TestE2EStatedirPersistFailureFailStops(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	const victim = proto.SiteID(3)
	outDir := t.TempDir()
	c := newCluster(t, proc.Config{Dir: outDir})
	stateDir := filepath.Join(outDir, "state3")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", filepath.Join(stateDir, "wal.jsonl")); err != nil {
		t.Fatal(err)
	}
	must(t, c.Start(context.Background()))

	// Coordinate at the victim: its own prepare record is the first thing
	// the commit must force. The client must not see an acknowledgement.
	if code, body, err := c.Post(context.Background(), victim, "/exec?item=x&value=9"); err == nil && code == http.StatusOK {
		t.Fatalf("site 3 acknowledged a commit it could not persist: %s", body)
	}

	log, werr := c.Wait(victim)
	var exit *exec.ExitError
	if !errors.As(werr, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("site 3 exit = %v, want exit status 1", werr)
	}
	if !strings.Contains(log, "statedir wal persist failed") || !strings.Contains(log, "no space left on device") {
		t.Fatalf("site 3 stderr does not name the persist failure:\n%s", log)
	}
	if _, err := http.Get(c.URL(victim) + "/status"); err == nil {
		t.Fatal("site 3 still serves its control port after the persist failure")
	}
}
