package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/chaos/proc"
	"siterecovery/internal/load"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/trace"
)

// TestE2EThreeSiteCluster builds the srnode binary, launches a 3-site
// cluster as real OS processes over localhost TCP, and drives the paper's
// lifecycle through the HTTP control surface: commit a read-write
// transaction, take a site down, keep committing on the survivors, then run
// type-1 recovery and verify the recovered site converged.
//
// The lifecycle runs once per crash model:
//
//   - crash-http: POST /crash. The process survives; its in-memory "stable"
//     storage and WAL carry into /recover directly.
//   - sigkill: the process is killed outright and relaunched over its
//     -statedir with -start-down and the next -epoch. Only the disk-spilled
//     stable slice survives; data pages come back through the copiers, and
//     the incarnations' exports are stitched with a kill-cut marker.
//   - sigkill-disk: same kill, but the cluster runs -store=disk with
//     -identify versiondiff. The relaunched victim rebuilds committed pages
//     from its local WAL redo BEFORE the type-1 claim (asserted through a
//     /storage peek while the site is still down), and the copiers then
//     transfer only the one item that changed while it was dead — current
//     items cost zero peer page fetches.
func TestE2EThreeSiteCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning e2e test in -short mode")
	}

	bin := srnodeBin(t)
	ctx := context.Background()

	const victim = proto.SiteID(3) // the site taken down

	models := []struct {
		name string
		// strictOrder enables the full merged-timeline ordering check.
		// The sigkill model's crash event is a synthetic kill-cut marker
		// whose merge position is exact only within its own stream, so it
		// gets the stream-order subset of the assertions.
		strictOrder bool
		// args are extra srnode flags for every spawn in this model.
		args []string
		// writeYDown: write y=7 on the survivors while the victim is down.
		// The disk model leaves y untouched so local redo alone must serve
		// it back; wantY is the recovered site's expected y either way.
		writeYDown bool
		wantY      int64
		down       func(t *testing.T, c *proc.Cluster)
		// preRecover runs after bringBack but before POST /recover.
		preRecover func(t *testing.T, c *proc.Cluster)
		bringBack  func(t *testing.T, c *proc.Cluster)
		// checkReport inspects the /recover response body.
		checkReport func(t *testing.T, body []byte)
	}{
		{
			name:        "crash-http",
			strictOrder: true,
			writeYDown:  true,
			wantY:       7,
			down: func(t *testing.T, c *proc.Cluster) {
				if code, body := post(t, c, victim, "/crash"); code != http.StatusOK {
					t.Fatalf("crash site 3: %d %s", code, body)
				}
			},
			bringBack: func(t *testing.T, c *proc.Cluster) {},
		},
		{
			name:        "sigkill",
			strictOrder: false,
			writeYDown:  true,
			wantY:       7,
			down: func(t *testing.T, c *proc.Cluster) {
				c.Kill(victim)
			},
			bringBack: func(t *testing.T, c *proc.Cluster) {
				// Respawn over the same statedir and addresses: a restarted
				// process is a DOWN site until /recover runs.
				must(t, c.Respawn(ctx, victim))
			},
		},
		{
			name:        "sigkill-disk",
			strictOrder: false,
			args:        []string{"-store", "disk", "-identify", "versiondiff", "-pool-pages", "8"},
			writeYDown:  false,
			wantY:       13,
			down: func(t *testing.T, c *proc.Cluster) {
				c.Kill(victim)
			},
			bringBack: func(t *testing.T, c *proc.Cluster) {
				must(t, c.Respawn(ctx, victim))
			},
			preRecover: func(t *testing.T, c *proc.Cluster) {
				// The site is still DOWN — no claim has run, no peer has been
				// asked for a page — yet its committed copy of y must already
				// read 13 from the local redo pass, and the engine must report
				// having replayed records at open.
				st := getStorage(t, c, victim, "y")
				if st.Engine != "disk" {
					t.Fatalf("engine = %q, want disk", st.Engine)
				}
				if st.Value != 13 {
					t.Fatalf("pre-claim local committed y = %d, want 13 (WAL redo)", st.Value)
				}
				if st.Stats.RedoApplied == 0 {
					t.Fatalf("respawned engine applied no redo records: %+v", st.Stats)
				}
			},
			checkReport: func(t *testing.T, body []byte) {
				var rep struct {
					DataCopies   uint64 `json:"dataCopies"`
					VersionSkips uint64 `json:"versionSkips"`
				}
				if err := json.Unmarshal(body, &rep); err != nil {
					t.Fatalf("recover report %s: %v", body, err)
				}
				// Only x changed while the victim was dead: exactly one copier
				// moved data, and every current item (y) was a version skip —
				// zero peer page fetches for current items.
				if rep.DataCopies != 1 {
					t.Fatalf("dataCopies = %d, want 1 (only x changed while down): %s", rep.DataCopies, body)
				}
				if rep.VersionSkips < 1 {
					t.Fatalf("versionSkips = %d, want >= 1 (y is current locally): %s", rep.VersionSkips, body)
				}
			},
		},
	}

	for _, model := range models {
		t.Run(model.name, func(t *testing.T) {
			// Each site exports its event stream as JSONL; SRNODE_E2E_OUTDIR
			// keeps the files (CI uploads the merged timeline), else they're
			// temporary.
			outDir := os.Getenv("SRNODE_E2E_OUTDIR")
			if outDir == "" {
				outDir = t.TempDir()
			} else {
				outDir = filepath.Join(outDir, model.name)
			}
			c := newCluster(t, proc.Config{Bin: bin, Dir: outDir, Args: model.args})
			must(t, c.Start(ctx))

			// A read-write transaction at site 1 replicates to every copy.
			if code, body := post(t, c, 1, "/exec?item=x&value=41"); code != http.StatusOK {
				t.Fatalf("exec at site 1: %d %s", code, body)
			}
			if got := readItem(t, c, 2, "x"); got != 41 {
				t.Fatalf("x at site 2 = %d, want 41", got)
			}

			// The srload driving surface: an arbitrary read/write transaction
			// via POST /txn, committed at site 2, visible at site 1.
			runTxn(t, c, 2, load.Txn{Reads: []proto.Item{"x"}, Writes: []load.Write{{Item: "y", Value: 13}}})
			if got := readItem(t, c, 1, "y"); got != 13 {
				t.Fatalf("y at site 1 = %d, want 13", got)
			}

			// Take site 3 down — once it has installed what it voted on: the
			// replies above came at the durable decision, and the disk model
			// below expects y=13 to be in the victim's redo log, not in doubt.
			// Writes at site 1 fail until the failure detector's type-2
			// control transaction excludes it, then proceed on survivors.
			must(t, c.WaitDecided(ctx))
			model.down(t, c)
			deadline := time.Now().Add(20 * time.Second)
			for {
				code, body := post(t, c, 1, "/exec?item=x&value=100")
				if code == http.StatusOK {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("write never succeeded after crash: %d %s", code, body)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if model.writeYDown {
				if code, body := post(t, c, 1, "/exec?item=y&value=7"); code != http.StatusOK {
					t.Fatalf("write y on survivors: %d %s", code, body)
				}
			}

			// Recover site 3: the type-1 control transaction claims it
			// nominally up with a fresh session number, and /recover waits
			// for the copiers.
			model.bringBack(t, c)
			if model.preRecover != nil {
				model.preRecover(t, c)
			}
			code, body := post(t, c, victim, "/recover")
			if code != http.StatusOK {
				t.Fatalf("recover site 3: %d %s", code, body)
			}
			var report struct {
				Session uint64 `json:"session"`
			}
			if err := json.Unmarshal(body, &report); err != nil {
				t.Fatalf("recover report %s: %v", body, err)
			}
			if report.Session <= 1 {
				t.Fatalf("recovered session = %d, want > 1", report.Session)
			}
			if model.checkReport != nil {
				model.checkReport(t, body)
			}

			// The recovered site serves current data from its local copies —
			// under sigkill those pages died with the process and came back
			// through the copiers (mem) or local redo plus one copier (disk).
			if got := readItem(t, c, victim, "x"); got != 100 {
				t.Fatalf("x at recovered site = %d, want 100", got)
			}
			if got := readItem(t, c, victim, "y"); got != model.wantY {
				t.Fatalf("y at recovered site = %d, want %d", got, model.wantY)
			}

			// The runtime surface rides on the control port.
			checkRuntimeSurface(t, c.URL(1))

			// Merge the per-site traces into one causal timeline and verify
			// the whole lifecycle — commit, crash, exclusion, type-1
			// recovery — reconstructs from the exports alone.
			checkMergedTimeline(t, checkMergedTrace(t, c), model.strictOrder)
		})
	}
}

// newCluster creates a 3-site cluster from cfg without spawning it,
// building srnode when cfg.Bin is empty. Every process's output is copied to
// the test's stderr, and the cluster stops when the test ends.
func newCluster(t *testing.T, cfg proc.Config) *proc.Cluster {
	t.Helper()
	if cfg.Bin == "" {
		cfg.Bin = srnodeBin(t)
	}
	cfg.Sites, cfg.Stderr = 3, os.Stderr
	c, err := proc.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func srnodeBin(t *testing.T) string {
	t.Helper()
	bin, err := proc.Build(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// checkMergedTrace waits out in-flight decisions, so the server side of
// every posted commit span has finished; stitches each site's incarnation
// exports, every one of which must hold events; merges them into one causal
// timeline; and requires the merge and the trace-invariant suite to find
// nothing.
func checkMergedTrace(t *testing.T, c *proc.Cluster) trace.Merged {
	t.Helper()
	ctx := context.Background()
	must(t, c.WaitDecided(ctx))
	streams, err := c.Streams(ctx)
	must(t, err)
	for i, evs := range streams {
		if len(evs) == 0 {
			t.Fatalf("site %d exported no events", i+1)
		}
	}
	merged := trace.Merge(streams...)
	if len(merged.Violations) != 0 {
		t.Fatalf("causal merge found violations: %v", merged.Violations)
	}
	if fails := chaos.CheckTrace(merged, chaos.TraceSuite()); len(fails) != 0 {
		t.Fatalf("trace invariants failed: %v", fails)
	}
	return merged
}

// checkRuntimeSurface asserts /metrics carries the Go runtime gauges and
// the RPC span counters, and that pprof is mounted.
func checkRuntimeSurface(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"sr_go_goroutines", "sr_go_heap_alloc_bytes", "sr_rpc_client_", "sr_dm_prepared"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	resp, err = http.Get(url + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/: %d, want 200", resp.StatusCode)
	}
}

// checkMergedTimeline asserts the causal order of the lifecycle and that
// every 2PC RPC is attributable to a transaction the trace saw begin.
//
// With strictOrder the full commit < crash < exclusion < recovery-done
// chain is required; without it (the sigkill model) only crash <
// recovery-done is asserted. The sigkill crash event is a synthetic
// kill-cut marker ordered exactly only within site 3's own stream — and
// when the killed incarnation never flushed, that stream starts AT the
// marker, so nothing anchors it after the pre-kill commits.
func checkMergedTimeline(t *testing.T, merged trace.Merged, strictOrder bool) {
	t.Helper()
	begun := map[proto.TxnID]proto.TxnClass{}
	for _, e := range merged.Events {
		if e.Type == obs.EvTxnBegin {
			begun[e.Txn] = e.Class
		}
	}

	// Every 2PC RPC span's root transaction began somewhere in the trace.
	txnScoped := map[string]bool{"read": true, "write": true, "batch": true,
		"prepare": true, "commit": true, "abort": true}
	sawPrepare, sawClaimRPC := false, false
	for _, e := range merged.Events {
		side, kind, _, ok := obs.SpanSide(e)
		if !ok {
			continue
		}
		if txnScoped[kind] {
			if _, ok := begun[e.Txn]; !ok {
				t.Errorf("%s RPC span %x roots in txn%d which never began in the trace", kind, e.Span, e.Txn)
			}
		}
		if side == obs.SideClient && kind == "prepare" {
			sawPrepare = true
		}
		if begun[e.Txn] == proto.ClassControl1 || begun[e.Txn] == proto.ClassControl2 {
			sawClaimRPC = true
		}
	}
	if !sawPrepare {
		t.Error("no client-side prepare span in the merged trace")
	}
	if !sawClaimRPC {
		t.Error("no RPC span attributable to a control-transaction claim")
	}

	// Lifecycle order: a user commit precedes the crash, the crash precedes
	// the type-2 exclusion, and the exclusion precedes recovery completion.
	idx := func(match func(obs.Event) bool) int {
		for i, e := range merged.Events {
			if match(e) {
				return i
			}
		}
		return -1
	}
	commitAt := idx(func(e obs.Event) bool { return e.Type == obs.EvTxnCommit && e.Class == proto.ClassUser })
	crashAt := idx(func(e obs.Event) bool { return e.Type == obs.EvSiteCrash && e.Site == 3 })
	exclAt := idx(func(e obs.Event) bool { return e.Type == obs.EvControl2 })
	recDoneAt := idx(func(e obs.Event) bool { return e.Type == obs.EvRecoveryDone && e.Site == 3 })
	if commitAt < 0 || crashAt < 0 || exclAt < 0 || recDoneAt < 0 {
		t.Fatalf("lifecycle events missing: commit=%d crash=%d exclusion=%d recovery.done=%d",
			commitAt, crashAt, exclAt, recDoneAt)
	}
	if strictOrder {
		if !(commitAt < crashAt && crashAt < exclAt && exclAt < recDoneAt) {
			t.Fatalf("merged lifecycle out of order: commit=%d crash=%d exclusion=%d recovery.done=%d",
				commitAt, crashAt, exclAt, recDoneAt)
		}
	} else if crashAt >= recDoneAt {
		t.Fatalf("merged lifecycle out of order: crash=%d recovery.done=%d", crashAt, recDoneAt)
	}
}

func post(t *testing.T, c *proc.Cluster, site proto.SiteID, path string) (int, []byte) {
	t.Helper()
	code, body, err := c.Post(context.Background(), site, path)
	if err != nil {
		t.Fatalf("POST %s at site %v: %v", path, site, err)
	}
	return code, body
}

// runTxn commits tx at site through POST /txn with srload's client.
func runTxn(t *testing.T, c *proc.Cluster, site proto.SiteID, tx load.Txn) {
	t.Helper()
	if err := load.HTTPTarget(c.URL(site))(context.Background(), tx); err != nil {
		t.Fatalf("txn at site %v: %v", site, err)
	}
}

func readItem(t *testing.T, c *proc.Cluster, site proto.SiteID, item string) int64 {
	t.Helper()
	var out struct {
		Value int64 `json:"value"`
	}
	if err := c.GetJSON(context.Background(), site, "/read?item="+item, &out); err != nil {
		t.Fatalf("read %s: %v", item, err)
	}
	return out.Value
}

// storagePeek mirrors GET /storage?item=NAME: the engine kind, its disk
// counters, and the committed local copy read without session or
// unreadable gates.
type storagePeek struct {
	Engine         string `json:"engine"`
	Value          int64  `json:"value"`
	VersionCounter uint64 `json:"versionCounter"`
	VersionWriter  uint64 `json:"versionWriter"`
	Unreadable     bool   `json:"unreadable"`
	Stats          struct {
		RedoApplied uint64 `json:"RedoApplied"`
		RedoSkipped uint64 `json:"RedoSkipped"`
	} `json:"stats"`
}

func getStorage(t *testing.T, c *proc.Cluster, site proto.SiteID, item string) storagePeek {
	t.Helper()
	var out storagePeek
	if err := c.GetJSON(context.Background(), site, "/storage?item="+item, &out); err != nil {
		t.Fatalf("storage %s: %v", item, err)
	}
	return out
}
