// Package proc runs chaos schedules against a REAL srnode cluster: N OS
// processes speaking the tcpnet wire protocol, every inter-site link routed
// through an internal/faultproxy TCP proxy so the harness can partition,
// slow, and wedge the actual byte streams, and a driver that replays seeded
// chaos.Schedule plans including two crash models the in-process simulator
// cannot express:
//
//   - StepCrash: POST /crash — the process stays alive, its in-memory
//     "stable" state intact, and refuses service (the netsim crash model).
//   - StepKill: SIGKILL — the process dies mid-whatever it was doing. Only
//     state the node spilled to its -statedir (the §3.1 session counter,
//     the 2PC log) survives into the respawned incarnation; everything
//     else, including buffered trace exports, is genuinely lost.
//
// After a schedule runs, the harness quiesces: faults clear, killed
// processes respawn (-start-down, over the same statedir and listen
// address), every down site runs the paper's recovery, type-2 exclusions
// are repaired the way the simulator's quiesce repairs them, and all
// replicas must converge. Per-incarnation JSONL exports are concatenated —
// with a kill-cut marker (obs.DetailSigkill) where a SIGKILL truncated a
// stream — causally merged by internal/trace, and gated on the full
// chaos.TraceSuite. Failing schedules shrink with chaos.ShrinkWith to
// minimal JSON reproducers, exactly like netsim schedules.
package proc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"siterecovery/internal/faultproxy"
	"siterecovery/internal/freeport"
	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

// Options configures a process-cluster chaos run.
type Options struct {
	// Bin is the path to a built srnode binary. Required.
	Bin string
	// Dir receives all artifacts: per-incarnation exports, statedirs,
	// combined per-site streams, the merged timeline. Empty means a fresh
	// temporary directory.
	Dir string
	// Stderr receives the srnode processes' stderr/stdout (nil discards).
	Stderr io.Writer
	// Env appends to the child environment (e.g. "SRNODE_BUG=reuse-session"
	// to run a deliberately broken variant the oracle must catch).
	Env []string
	// Store selects the srnode storage engine ("mem" or "disk"); empty
	// leaves srnode's default (mem). With "disk" every SIGKILL also
	// exercises the heap-file redo pass on relaunch.
	Store string
	// Log receives progress lines (nil is silent).
	Log func(string)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(fmt.Sprintf(format, args...))
	}
}

// siteProc is one site's current OS process plus its incarnation history.
type siteProc struct {
	cmd *exec.Cmd
	// gen counts incarnations; it doubles as the -epoch so relaunches
	// never re-allocate a previous life's span or transaction IDs.
	gen int
	// exports lists every incarnation's JSONL path, in order. A SIGKILLed
	// incarnation's file may be empty or torn — that is the point.
	exports []string
	alive   bool
}

// cluster is a live srnode process cluster wired through a fault proxy.
type cluster struct {
	opts     Options
	dir      string
	sites    []proto.SiteID
	items    []proto.Item
	identify string
	proxy    *faultproxy.Proxy
	peerAddr map[proto.SiteID]string // each site's real tcpnet listen address
	ctrl     map[proto.SiteID]string // each site's HTTP control address
	procs    map[proto.SiteID]*siteProc
	client   *http.Client
}

// claimDir creates dir, or refuses one an earlier run used: fresh srnodes
// spawned over that run's statedirs never finish recovering, and its exports
// would be merged into this run's timeline.
func claimDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		for _, pattern := range []string{"state*", "site*.gen*.jsonl"} {
			if used, _ := filepath.Match(pattern, e.Name()); used {
				return fmt.Errorf("proc: %s is left over from an earlier run; use an empty directory",
					filepath.Join(dir, e.Name()))
			}
		}
	}
	return nil
}

// startCluster reserves addresses, builds the full proxy link matrix, and
// spawns one srnode per site, waiting for all to become operational.
func startCluster(ctx context.Context, opts Options, sites, items int, identify string) (*cluster, error) {
	c := &cluster{
		opts:     opts,
		dir:      opts.Dir,
		identify: identify,
		peerAddr: map[proto.SiteID]string{},
		ctrl:     map[proto.SiteID]string{},
		procs:    map[proto.SiteID]*siteProc{},
		client:   &http.Client{},
	}
	if c.identify == "" {
		c.identify = "markall"
	}
	if c.dir == "" {
		dir, err := os.MkdirTemp("", "srchaos-*")
		if err != nil {
			return nil, err
		}
		c.dir = dir
	} else if err := claimDir(c.dir); err != nil {
		return nil, err
	}
	for i := 1; i <= sites; i++ {
		c.sites = append(c.sites, proto.SiteID(i))
	}
	for i := 0; i < items; i++ {
		c.items = append(c.items, workload.ItemName(i))
	}

	for _, s := range c.sites {
		var err error
		if c.peerAddr[s], err = freeport.Addr(); err != nil {
			return nil, err
		}
		if c.ctrl[s], err = freeport.Addr(); err != nil {
			return nil, err
		}
	}

	// One proxy link per directed pair, targeting the destination's real
	// listener. Site i's view of the cluster points every peer at the
	// (i, peer) link, so faults land on exactly the byte stream they name.
	c.proxy = faultproxy.New()
	for _, from := range c.sites {
		for _, to := range c.sites {
			if from == to {
				continue
			}
			if _, err := c.proxy.AddLink(from, to, c.peerAddr[to]); err != nil {
				c.stop()
				return nil, fmt.Errorf("proxy link %v->%v: %w", from, to, err)
			}
		}
	}

	for _, s := range c.sites {
		if err := c.spawn(s, false); err != nil {
			c.stop()
			return nil, err
		}
	}
	for _, s := range c.sites {
		if err := c.waitStatus(ctx, s, true); err != nil {
			c.stop()
			return nil, fmt.Errorf("site %v never became operational: %w", s, err)
		}
	}
	opts.logf("cluster up: %d sites, %d items, artifacts in %s", sites, items, c.dir)
	return c, nil
}

// peersSpecFor renders site's personalized -peers map: itself at its real
// listen address, every peer at the proxied link address.
func (c *cluster) peersSpecFor(site proto.SiteID) string {
	parts := make([]string, 0, len(c.sites))
	for _, j := range c.sites {
		addr := c.peerAddr[j]
		if j != site {
			addr = c.proxy.Addr(site, j)
		}
		parts = append(parts, fmt.Sprintf("%d=%s", j, addr))
	}
	return strings.Join(parts, ",")
}

// spawn launches site's next incarnation. startDown relaunches after a
// SIGKILL: the process assembles crashed and must run recovery before
// serving. The statedir and listen/control addresses are stable across
// incarnations; the export path and span epoch are per-incarnation.
func (c *cluster) spawn(site proto.SiteID, startDown bool) error {
	p := c.procs[site]
	if p == nil {
		p = &siteProc{gen: -1}
		c.procs[site] = p
	}
	p.gen++
	exportPath := filepath.Join(c.dir, fmt.Sprintf("site%d.gen%d.jsonl", site, p.gen))
	args := []string{
		"-site", fmt.Sprint(int(site)),
		"-peers", c.peersSpecFor(site),
		"-items", itemsCSV(c.items),
		"-control", c.ctrl[site],
		"-identify", c.identify,
		"-export", exportPath,
		"-statedir", filepath.Join(c.dir, fmt.Sprintf("state%d", site)),
		"-epoch", fmt.Sprint(p.gen),
	}
	if startDown {
		args = append(args, "-start-down")
	}
	if c.opts.Store != "" {
		args = append(args, "-store", c.opts.Store)
	}
	cmd := exec.Command(c.opts.Bin, args...)
	cmd.Env = append(os.Environ(), c.opts.Env...)
	out := c.opts.Stderr
	if out == nil {
		out = io.Discard
	}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn site %v: %w", site, err)
	}
	p.cmd = cmd
	p.alive = true
	p.exports = append(p.exports, exportPath)
	return nil
}

// kill SIGKILLs site's process and reaps it. The listen address frees on
// process death, ready for the respawn to rebind.
func (c *cluster) kill(site proto.SiteID) {
	p := c.procs[site]
	if p == nil || !p.alive {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.alive = false
}

// stop tears everything down: processes killed, proxy closed.
func (c *cluster) stop() {
	for _, s := range c.sites {
		c.kill(s)
	}
	if c.proxy != nil {
		c.proxy.Close()
	}
}

// post issues a control-plane POST; control traffic bypasses the proxy, so
// it works under any configured network fault.
func (c *cluster) post(ctx context.Context, site proto.SiteID, path string, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+c.ctrl[site]+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, buf, nil
}

// getJSON issues a control-plane GET and decodes the JSON response into out.
func (c *cluster) getJSON(ctx context.Context, site proto.SiteID, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+c.ctrl[site]+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s at site %v: %d %s", path, site, resp.StatusCode, buf)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// status is the /status control response.
type status struct {
	Up          bool `json:"up"`
	Operational bool `json:"operational"`
	// Prepared counts transactions the site voted on and has not yet
	// learned the outcome of: coordinators answer at the durable decision,
	// so a site's copies are settled only when this is 0.
	Prepared int `json:"prepared"`
}

// waitStatus polls /status until the site answers (and, when operational is
// set, reports itself operational).
func (c *cluster) waitStatus(ctx context.Context, site proto.SiteID, operational bool) error {
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		var st status
		callCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		lastErr = c.getJSON(callCtx, site, "/status", &st)
		cancel()
		if lastErr == nil && (!operational || (st.Up && st.Operational)) {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("timed out: %v", lastErr)
}

func itemsCSV(items []proto.Item) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = string(it)
	}
	return strings.Join(parts, ",")
}
