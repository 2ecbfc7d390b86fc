package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/freeport"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
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

	bin := buildSrnode(t)

	const victim = 2 // index of site 3, the site taken down

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
		down       func(t *testing.T, c *e2eCluster)
		// preRecover runs after bringBack but before POST /recover.
		preRecover func(t *testing.T, c *e2eCluster)
		bringBack  func(t *testing.T, c *e2eCluster)
		// checkReport inspects the /recover response body.
		checkReport func(t *testing.T, body []byte)
	}{
		{
			name:        "crash-http",
			strictOrder: true,
			writeYDown:  true,
			wantY:       7,
			down: func(t *testing.T, c *e2eCluster) {
				if code, body := post(t, c.controlAddrs[victim], "/crash"); code != http.StatusOK {
					t.Fatalf("crash site 3: %d %s", code, body)
				}
			},
			bringBack: func(t *testing.T, c *e2eCluster) {},
		},
		{
			name:        "sigkill",
			strictOrder: false,
			writeYDown:  true,
			wantY:       7,
			down: func(t *testing.T, c *e2eCluster) {
				c.kill(victim)
			},
			bringBack: func(t *testing.T, c *e2eCluster) {
				// Respawn over the same statedir and addresses: a restarted
				// process is a DOWN site until /recover runs.
				c.spawn(t, victim, true)
				c.waitReachable(t, victim)
			},
		},
		{
			name:        "sigkill-disk",
			strictOrder: false,
			args:        []string{"-store", "disk", "-identify", "versiondiff", "-pool-pages", "8"},
			writeYDown:  false,
			wantY:       13,
			down: func(t *testing.T, c *e2eCluster) {
				c.kill(victim)
			},
			bringBack: func(t *testing.T, c *e2eCluster) {
				c.spawn(t, victim, true)
				c.waitReachable(t, victim)
			},
			preRecover: func(t *testing.T, c *e2eCluster) {
				// The site is still DOWN — no claim has run, no peer has been
				// asked for a page — yet its committed copy of y must already
				// read 13 from the local redo pass, and the engine must report
				// having replayed records at open.
				st := getStorage(t, c.controlAddrs[victim], "y")
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
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				t.Fatal(err)
			}

			c := newE2ECluster(t, bin, outDir)
			c.extraArgs = model.args
			for i := range c.peerAddrs {
				c.spawn(t, i, false)
			}
			for i := range c.peerAddrs {
				waitOperational(t, c.controlAddrs[i])
			}

			// A read-write transaction at site 1 replicates to every copy.
			if code, body := post(t, c.controlAddrs[0], "/exec?item=x&value=41"); code != http.StatusOK {
				t.Fatalf("exec at site 1: %d %s", code, body)
			}
			if got := readItem(t, c.controlAddrs[1], "x"); got != 41 {
				t.Fatalf("x at site 2 = %d, want 41", got)
			}

			// The srload driving surface: an arbitrary read/write transaction
			// via POST /txn, committed at site 2, visible at site 1.
			if code, body := postJSON(t, c.controlAddrs[1], "/txn",
				`{"reads":["x"],"writes":[{"item":"y","value":13}]}`); code != http.StatusOK {
				t.Fatalf("txn at site 2: %d %s", code, body)
			}
			if got := readItem(t, c.controlAddrs[0], "y"); got != 13 {
				t.Fatalf("y at site 1 = %d, want 13", got)
			}

			// Take site 3 down — once it has installed what it voted on: the
			// replies above came at the durable decision, and the disk model
			// below expects y=13 to be in the victim's redo log, not in doubt.
			// Writes at site 1 fail until the failure detector's type-2
			// control transaction excludes it, then proceed on survivors.
			c.waitDecided(t)
			model.down(t, c)
			deadline := time.Now().Add(20 * time.Second)
			for {
				code, body := post(t, c.controlAddrs[0], "/exec?item=x&value=100")
				if code == http.StatusOK {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("write never succeeded after crash: %d %s", code, body)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if model.writeYDown {
				if code, body := post(t, c.controlAddrs[0], "/exec?item=y&value=7"); code != http.StatusOK {
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
			code, body := post(t, c.controlAddrs[victim], "/recover")
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
			if got := readItem(t, c.controlAddrs[victim], "x"); got != 100 {
				t.Fatalf("x at recovered site = %d, want 100", got)
			}
			if got := readItem(t, c.controlAddrs[victim], "y"); got != model.wantY {
				t.Fatalf("y at recovered site = %d, want %d", got, model.wantY)
			}

			// The runtime surface rides on the control port.
			checkRuntimeSurface(t, c.controlAddrs[0])

			// Merge the per-site traces into one causal timeline and verify
			// the whole lifecycle — commit, crash, exclusion, type-1
			// recovery — reconstructs from the exports alone.
			merged := trace.Merge(c.streams(t)...)
			if len(merged.Violations) != 0 {
				t.Fatalf("causal merge found violations: %v", merged.Violations)
			}
			if fails := chaos.CheckTrace(merged, chaos.TraceSuite()); len(fails) != 0 {
				t.Fatalf("trace invariants failed: %v", fails)
			}
			checkMergedTimeline(t, merged, model.strictOrder)
		})
	}
}

// e2eCluster tracks one lifecycle run's processes, addresses, and
// per-incarnation export files.
type e2eCluster struct {
	bin, outDir  string
	peerSpec     string
	peerAddrs    []string
	controlAddrs []string
	procs        []*exec.Cmd
	// exports collects every incarnation's JSONL path per site; gens counts
	// incarnations (it feeds -epoch so relaunches never alias identifiers).
	exports [][]string
	gens    []int
	// extraArgs are appended to every spawn (e.g. -store disk).
	extraArgs []string
	// peerSpecs overrides the -peers map of individual sites (by index), so
	// a test can route some of a site's links through a fault proxy.
	peerSpecs map[int]string
	// items is the -items list every site serves.
	items string
	// stderr keeps each site's latest incarnation's standard error (also
	// copied to the test's own); read it only after that process was reaped.
	stderr []*bytes.Buffer
}

func newE2ECluster(t *testing.T, bin, outDir string) *e2eCluster {
	t.Helper()
	const sites = 3
	c := &e2eCluster{
		bin: bin, outDir: outDir,
		peerAddrs:    make([]string, sites),
		controlAddrs: make([]string, sites),
		procs:        make([]*exec.Cmd, sites),
		exports:      make([][]string, sites),
		gens:         make([]int, sites),
		items:        "x,y",
		stderr:       make([]*bytes.Buffer, sites),
	}
	for i := 0; i < sites; i++ {
		c.peerAddrs[i] = freeAddr(t)
		c.controlAddrs[i] = freeAddr(t)
		c.gens[i] = -1
		if i > 0 {
			c.peerSpec += ","
		}
		c.peerSpec += fmt.Sprintf("%d=%s", i+1, c.peerAddrs[i])
	}
	return c
}

// spawn launches site i's next incarnation. The statedir and addresses are
// stable across incarnations; the export file and epoch are per-incarnation.
func (c *e2eCluster) spawn(t *testing.T, i int, startDown bool) {
	t.Helper()
	c.gens[i]++
	exportPath := filepath.Join(c.outDir, fmt.Sprintf("site%d.gen%d.jsonl", i+1, c.gens[i]))
	c.exports[i] = append(c.exports[i], exportPath)
	peers := c.peerSpec
	if spec, ok := c.peerSpecs[i]; ok {
		peers = spec
	}
	args := []string{
		"-site", fmt.Sprint(i + 1),
		"-peers", peers,
		"-items", c.items,
		"-control", c.controlAddrs[i],
		"-export", exportPath,
		"-statedir", filepath.Join(c.outDir, fmt.Sprintf("state%d", i+1)),
		"-epoch", fmt.Sprint(c.gens[i]),
	}
	if startDown {
		args = append(args, "-start-down")
	}
	args = append(args, c.extraArgs...)
	cmd := exec.Command(c.bin, args...)
	c.stderr[i] = new(bytes.Buffer)
	cmd.Stdout = os.Stderr
	cmd.Stderr = io.MultiWriter(os.Stderr, c.stderr[i])
	if err := cmd.Start(); err != nil {
		t.Fatalf("start srnode %d: %v", i+1, err)
	}
	c.procs[i] = cmd
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// kill SIGKILLs site i and reaps it, freeing its addresses for a respawn.
func (c *e2eCluster) kill(i int) {
	c.procs[i].Process.Kill()
	c.procs[i].Wait()
}

// waitReachable polls /status until the control server answers, without
// requiring the site to be operational (a -start-down respawn is NOT).
func (c *e2eCluster) waitReachable(t *testing.T, i int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + c.controlAddrs[i] + "/status")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return
		}
		lastErr = err
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("site %d control never came back: %v", i+1, lastErr)
}

// waitDecided polls GET /status at every reachable site until none holds a
// prepared transaction whose decision has not landed. Phase two is posted,
// so a committed reply says the decision is durable at the coordinator, not
// that every participant has installed: anything that looks at a copy, a log
// or an export without going through a transaction waits here first.
func (c *e2eCluster) waitDecided(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i, ctrl := range c.controlAddrs {
		for {
			n, err := prepared(ctrl)
			if err != nil || n == 0 {
				break // a dead process holds nothing
			}
			if time.Now().After(deadline) {
				t.Fatalf("site %d still holds %d prepared transactions", i+1, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// prepared reads "prepared" off GET /status: the transactions the site has
// voted on and not yet learned the outcome of.
func prepared(ctrl string) (int, error) {
	resp, err := http.Get("http://" + ctrl + "/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Prepared int `json:"prepared"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.Prepared, err
}

// streams flushes live processes and returns one event stream per site:
// each site's incarnation exports concatenated, with a kill-cut marker
// where a SIGKILL truncated the previous life (the same stitching the
// chaos harness does). A killed incarnation's file may be empty — only the
// combined stream must be non-empty. It waits for in-flight decisions
// first, so the server side of every posted commit span has finished.
func (c *e2eCluster) streams(t *testing.T) [][]obs.Event {
	t.Helper()
	c.waitDecided(t)
	streams := make([][]obs.Event, len(c.exports))
	for i, paths := range c.exports {
		if code, body := post(t, c.controlAddrs[i], "/flush"); code != http.StatusOK {
			t.Fatalf("flush site %d: %d %s", i+1, code, body)
		}
		var evs []obs.Event
		for g, path := range paths {
			if g > 0 {
				evs = append(evs, obs.Event{Type: obs.EvSiteCrash, Site: proto.SiteID(i + 1), Detail: obs.DetailSigkill})
			}
			got, err := export.DecodeFile(path)
			if err != nil {
				t.Fatalf("decode site %d gen %d export: %v", i+1, g, err)
			}
			evs = append(evs, got...)
		}
		if len(evs) == 0 {
			t.Fatalf("site %d exported no events", i+1)
		}
		streams[i] = evs
	}
	return streams
}

// checkRuntimeSurface asserts /metrics carries the Go runtime gauges and
// the RPC span counters, and that pprof is mounted.
func checkRuntimeSurface(t *testing.T, ctrl string) {
	t.Helper()
	resp, err := http.Get("http://" + ctrl + "/metrics")
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
	resp, err = http.Get("http://" + ctrl + "/debug/pprof/")
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

func buildSrnode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "srnode")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build srnode: %v\n%s", err, out)
	}
	return bin
}

// freeAddr takes a localhost address for an srnode process to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	addr, err := freeport.Addr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func waitOperational(t *testing.T, ctrl string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + ctrl + "/status")
		if err == nil {
			var st struct {
				Up          bool `json:"up"`
				Operational bool `json:"operational"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.Up && st.Operational {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("site at %s never became operational: %v", ctrl, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func post(t *testing.T, ctrl, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+ctrl+path, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, buf
}

func postJSON(t *testing.T, ctrl, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+ctrl+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, buf
}

func readItem(t *testing.T, ctrl, item string) int64 {
	t.Helper()
	resp, err := http.Get("http://" + ctrl + "/read?item=" + item)
	if err != nil {
		t.Fatalf("GET /read?item=%s: %v", item, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(resp.Body)
		t.Fatalf("read %s: %d %s", item, resp.StatusCode, buf)
	}
	var out struct {
		Value int64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
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

func getStorage(t *testing.T, ctrl, item string) storagePeek {
	t.Helper()
	resp, err := http.Get("http://" + ctrl + "/storage?item=" + item)
	if err != nil {
		t.Fatalf("GET /storage?item=%s: %v", item, err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("storage %s: %d %s", item, resp.StatusCode, buf)
	}
	var out storagePeek
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatalf("storage %s: %s: %v", item, buf, err)
	}
	return out
}
