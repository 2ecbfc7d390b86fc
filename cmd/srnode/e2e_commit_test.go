package main

import (
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
)

var sentLine = regexp.MustCompile(`(?m)^sr_net_sent_([a-z_]+)_total\{[^}]*\} (\d+)$`)

// sentCounts scrapes ctrl's /metrics for the wire messages that site has
// sent so far, by message kind (sr_net_sent_<kind>_total).
func sentCounts(t *testing.T, ctrl string) map[string]int {
	t.Helper()
	resp, err := http.Get("http://" + ctrl + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d %v", resp.StatusCode, err)
	}
	out := map[string]int{}
	for _, m := range sentLine.FindAllStringSubmatch(string(body), -1) {
		n, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("metric line %q: %v", m[0], err)
		}
		out[m[1]] += n
	}
	return out
}

// TestE2ECommitPathWireCost pins the commit path's cost on the real TCP
// cluster, counted where the messages leave the coordinator: a 4-write
// transaction over 3 sites sends each of the 2 remote participants one batch
// (vote piggybacked) and one commit — no per-item write, no prepare round —
// and a read-only transaction never leaves the coordinator.
func TestE2ECommitPathWireCost(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}
	c := newE2ECluster(t, buildSrnode(t), t.TempDir())
	c.items = "a,b,c,d"
	for i := range c.peerAddrs {
		c.spawn(t, i, false)
	}
	for i := range c.peerAddrs {
		waitOperational(t, c.controlAddrs[i])
	}
	coord := c.controlAddrs[0]
	kinds := []string{"batch", "commit", "write", "prepare", "read", "abort"}

	before := sentCounts(t, coord)
	if code, body := postJSON(t, coord, "/txn",
		`{"writes":[{"item":"d","value":4},{"item":"b","value":2},{"item":"c","value":3},{"item":"a","value":1}]}`); code != http.StatusOK {
		t.Fatalf("4-write txn: %d %s", code, body)
	}
	after := sentCounts(t, coord)
	want := map[string]int{"batch": 2, "commit": 2}
	for _, kind := range kinds {
		if got := after[kind] - before[kind]; got != want[kind] {
			t.Errorf("4-write txn moved %d %q messages from the coordinator, want %d", got, kind, want[kind])
		}
	}
	if got := readItem(t, c.controlAddrs[2], "d"); got != 4 {
		t.Fatalf("d at site 3 = %d, want 4", got)
	}

	before = sentCounts(t, coord)
	if code, body := postJSON(t, coord, "/txn", `{"reads":["a","b","c","d"]}`); code != http.StatusOK {
		t.Fatalf("read-only txn: %d %s", code, body)
	}
	after = sentCounts(t, coord)
	for _, kind := range kinds {
		if got := after[kind] - before[kind]; got != 0 {
			t.Errorf("read-only txn moved %d %q messages from the coordinator, want 0", got, kind)
		}
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
	const victim = 2 // index of site 3
	outDir := t.TempDir()
	stateDir := filepath.Join(outDir, "state3")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", filepath.Join(stateDir, "wal.jsonl")); err != nil {
		t.Fatal(err)
	}

	c := newE2ECluster(t, buildSrnode(t), outDir)
	for i := range c.peerAddrs {
		c.spawn(t, i, false)
	}
	for i := range c.peerAddrs {
		waitOperational(t, c.controlAddrs[i])
	}

	// Coordinate at the victim: its own prepare record is the first thing
	// the commit must force. The client must not see an acknowledgement.
	resp, err := http.Post("http://"+c.controlAddrs[victim]+"/exec?item=x&value=9", "", nil)
	if err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("site 3 acknowledged a commit it could not persist: %s", body)
		}
	}

	werr := c.procs[victim].Wait()
	var exit *exec.ExitError
	if !errors.As(werr, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("site 3 exit = %v, want exit status 1", werr)
	}
	if log := c.stderr[victim].String(); !strings.Contains(log, "statedir wal persist failed") ||
		!strings.Contains(log, "no space left on device") {
		t.Fatalf("site 3 stderr does not name the persist failure:\n%s", log)
	}
	if _, err := http.Get("http://" + c.controlAddrs[victim] + "/status"); err == nil {
		t.Fatal("site 3 still serves its control port after the persist failure")
	}
}
