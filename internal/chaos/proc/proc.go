// Package proc runs srnode as real OS processes: Cluster is the one process
// spawner outside bench/ (srchaos, srload's TCP column and every process
// test start srnodes through it), and Run replays chaos schedules against a
// Cluster whose every inter-site link is routed through an
// internal/faultproxy TCP proxy, so the harness can partition, slow, and
// wedge the actual byte streams — including two crash models the
// in-process simulator cannot express:
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"siterecovery/internal/faultproxy"
	"siterecovery/internal/freeport"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/proto"
)

// Build compiles cmd/srnode into dir and returns the binary's path, so a
// harness runs the working tree's exact code; run it from inside the module.
func Build(dir string) (string, error) {
	bin := filepath.Join(dir, "srnode")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	out, err := exec.Command("go", "build", "-o", bin, "siterecovery/cmd/srnode").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build srnode: %w\n%s", err, out)
	}
	return bin, nil
}

// Config configures a Cluster.
type Config struct {
	// Bin is the srnode binary (Build makes one). Required.
	Bin string
	// Sites is the cluster size; sites are numbered 1..Sites.
	Sites int
	// Dir holds each site's stable -statedir (stateN) and each
	// incarnation's -export (siteN.genG.jsonl). Empty passes neither flag.
	Dir string
	// Args are srnode flags every process gets after the cluster's own
	// (-items, -identify, -store, -lock, ...).
	Args []string
	// Env appends to every process's environment (e.g.
	// "SRNODE_BUG=reuse-session" runs a deliberately broken variant).
	Env []string
	// Proxy, when set, carries every inter-site link: NewCluster adds one
	// link per directed pair. Nil wires the sites to each other directly.
	Proxy *faultproxy.Proxy
	// Stderr receives every process's stdout and stderr, one whole write at
	// a time (nil discards).
	Stderr io.Writer
}

// Cluster is a set of srnode OS processes on localhost. NewCluster
// reserves the addresses and wires the links, Start spawns every site, and
// Kill and Respawn cycle one site's incarnations. Its Crash and Recover make
// it a load.Controller.
type Cluster struct {
	cfg   Config
	sites []proto.SiteID
	procs map[proto.SiteID]*siteProc
	mu    sync.Mutex // serializes writes to cfg.Stderr
}

// siteProc is one site's addresses, current OS process and incarnation
// history.
type siteProc struct {
	peerAddr string // the real tcpnet listen address
	ctrl     string // the HTTP control address
	cmd      *exec.Cmd
	out      *output
	alive    bool
	// gen counts incarnations from 0; it doubles as the -epoch so relaunches
	// never re-allocate a previous life's span or transaction IDs.
	gen int
	// exports lists every incarnation's JSONL path, in order.
	exports []string
}

// output is one incarnation's stdout and stderr. exec.Cmd copies both
// through one goroutine when they are the same writer, so the buffer has a
// single writer; the copy to the cluster's Stderr takes the cluster mutex,
// because every process's goroutine writes there.
type output struct {
	buf bytes.Buffer
	c   *Cluster
}

func (o *output) Write(b []byte) (int, error) {
	o.buf.Write(b)
	if w := o.c.cfg.Stderr; w != nil {
		o.c.mu.Lock()
		defer o.c.mu.Unlock()
		w.Write(b)
	}
	return len(b), nil
}

// NewCluster reserves every site's addresses and, with a Proxy, adds its
// links; nothing is spawned yet, so a caller can set link faults first.
// A non-empty Dir is created, or refused when an earlier run used it.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Dir != "" {
		if err := claimDir(cfg.Dir); err != nil {
			return nil, err
		}
	}
	c := &Cluster{cfg: cfg, procs: map[proto.SiteID]*siteProc{}}
	for i := 1; i <= cfg.Sites; i++ {
		p := &siteProc{gen: -1}
		var err error
		if p.peerAddr, err = freeport.Addr(); err != nil {
			return nil, err
		}
		if p.ctrl, err = freeport.Addr(); err != nil {
			return nil, err
		}
		c.sites = append(c.sites, proto.SiteID(i))
		c.procs[proto.SiteID(i)] = p
	}
	for _, from := range c.sites {
		for _, to := range c.sites {
			if from == to || cfg.Proxy == nil {
				continue
			}
			if _, err := cfg.Proxy.AddLink(from, to, c.procs[to].peerAddr); err != nil {
				return nil, fmt.Errorf("proxy link %v->%v: %w", from, to, err)
			}
		}
	}
	return c, nil
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

// Start spawns every site's first incarnation and waits until each reports
// itself operational. On failure it stops every process and the error
// carries the failing site's output.
func (c *Cluster) Start(ctx context.Context) error {
	for _, s := range c.sites {
		if err := c.spawn(s, false); err != nil {
			c.Stop()
			return err
		}
	}
	for _, s := range c.sites {
		if err := c.WaitStatus(ctx, s, true); err != nil {
			c.Stop()
			return fmt.Errorf("site %v never became operational: %w\nsrnode output:\n%s", s, err, c.procs[s].out.buf.Bytes())
		}
	}
	return nil
}

// Respawn launches site's next incarnation with -start-down — a restarted
// process is a down site until POST /recover — over the same statedir and
// addresses, and waits until its control port answers.
func (c *Cluster) Respawn(ctx context.Context, site proto.SiteID) error {
	if err := c.spawn(site, true); err != nil {
		return err
	}
	return c.WaitStatus(ctx, site, false)
}

// peersSpecFor renders site's -peers map: itself at its real listen
// address, every peer at its real address or at the (site, peer) proxy
// link, so a link fault lands on exactly the byte stream it names.
func (c *Cluster) peersSpecFor(site proto.SiteID) string {
	parts := make([]string, 0, len(c.sites))
	for _, j := range c.sites {
		addr := c.procs[j].peerAddr
		if j != site && c.cfg.Proxy != nil {
			addr = c.cfg.Proxy.Addr(site, j)
		}
		parts = append(parts, fmt.Sprintf("%d=%s", j, addr))
	}
	return strings.Join(parts, ",")
}

func (c *Cluster) spawn(site proto.SiteID, startDown bool) error {
	p := c.procs[site]
	p.gen++
	args := []string{
		"-site", fmt.Sprint(int(site)),
		"-peers", c.peersSpecFor(site),
		"-control", p.ctrl,
		"-epoch", fmt.Sprint(p.gen),
	}
	exportPath := filepath.Join(c.cfg.Dir, fmt.Sprintf("site%d.gen%d.jsonl", site, p.gen))
	if c.cfg.Dir != "" {
		args = append(args, "-export", exportPath,
			"-statedir", filepath.Join(c.cfg.Dir, fmt.Sprintf("state%d", site)))
	}
	if startDown {
		args = append(args, "-start-down")
	}
	cmd := exec.Command(c.cfg.Bin, append(args, c.cfg.Args...)...)
	cmd.Env = append(os.Environ(), c.cfg.Env...)
	p.out = &output{c: c}
	cmd.Stdout, cmd.Stderr = p.out, p.out
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn site %v: %w", site, err)
	}
	p.cmd, p.alive = cmd, true
	if c.cfg.Dir != "" {
		p.exports = append(p.exports, exportPath)
	}
	return nil
}

// Kill SIGKILLs site's process and reaps it; its addresses free for a
// Respawn to rebind.
func (c *Cluster) Kill(site proto.SiteID) {
	if p := c.procs[site]; p.alive {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		p.alive = false
	}
}

// Wait blocks until site's process exits on its own and returns everything
// it wrote to stdout and stderr, and how it exited.
func (c *Cluster) Wait(site proto.SiteID) (string, error) {
	p := c.procs[site]
	err := p.cmd.Wait()
	p.alive = false
	return p.out.buf.String(), err
}

// Stop kills every process. A Proxy stays open: it is the caller's.
func (c *Cluster) Stop() {
	for _, s := range c.sites {
		c.Kill(s)
	}
}

// URL is site's control base URL, e.g. "http://127.0.0.1:20001"; control
// traffic never crosses the proxy, so it works under any link fault.
func (c *Cluster) URL(site proto.SiteID) string { return "http://" + c.procs[site].ctrl }

// Post issues a control-plane POST and returns the status and body.
func (c *Cluster) Post(ctx context.Context, site proto.SiteID, path string) (int, []byte, error) {
	resp, err := c.do(ctx, http.MethodPost, site, path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// GetJSON issues a control-plane GET and decodes the JSON response into out.
func (c *Cluster) GetJSON(ctx context.Context, site proto.SiteID, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, site, path)
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

func (c *Cluster) do(ctx context.Context, method string, site proto.SiteID, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.URL(site)+path, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// Crash fail-stops site through POST /crash; the process stays alive. As
// load.Controller's Crash it cannot fail: a crash that did not land shows up
// as a fault window that committed everything.
func (c *Cluster) Crash(site proto.SiteID) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	c.Post(ctx, site, "/crash")
}

// Recover runs the paper's recovery at site through POST /recover, which
// answers once the site is operational again.
func (c *Cluster) Recover(ctx context.Context, site proto.SiteID) error {
	code, body, err := c.Post(ctx, site, "/recover")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("recover site %v: %d %s", site, code, bytes.TrimSpace(body))
	}
	return err
}

// callTimeout bounds one /status, /ns, /flush or /crash call.
const callTimeout = 5 * time.Second

// status is the /status control response.
type status struct {
	Up          bool `json:"up"`
	Operational bool `json:"operational"`
	Prepared    int  `json:"prepared"` // votes whose outcome the site has not learned yet
}

func (c *Cluster) status(ctx context.Context, site proto.SiteID) (status, error) {
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	var st status
	err := c.GetJSON(ctx, site, "/status", &st)
	return st, err
}

// WaitStatus polls /status until the site answers (and, when operational is
// set, reports itself up and operational).
func (c *Cluster) WaitStatus(ctx context.Context, site proto.SiteID, operational bool) error {
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, err := c.status(ctx, site)
		if lastErr = err; err == nil && (!operational || (st.Up && st.Operational)) {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("timed out: %v", lastErr)
}

// WaitDecided polls /status at every live site until none holds a prepared
// transaction whose decision has not landed. Phase two is posted, so a
// committed reply says the decision is durable at the coordinator, not that
// every participant has installed: a decision still in flight lands in
// microseconds, one lost to a fault is fetched by the participant's janitor
// (stale age plus a sweep interval). Anything that looks at a copy, a log or
// an export without going through a transaction waits here first.
func (c *Cluster) WaitDecided(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var pending []string
		for _, s := range c.sites {
			if !c.procs[s].alive {
				continue
			}
			st, err := c.status(ctx, s)
			if err != nil {
				return fmt.Errorf("status site %v: %w", s, err)
			}
			if st.Prepared > 0 {
				pending = append(pending, fmt.Sprintf("site %v: %d", s, st.Prepared))
			}
		}
		if len(pending) == 0 {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("prepared transactions never learned their outcome: %v", pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Streams flushes every live process's export, then returns one event
// stream per site: its incarnations' exports concatenated, with a kill-cut
// marker where a SIGKILL truncated the previous one — it tells the trace
// invariants to treat state open at that site as lost, not violated. A
// killed incarnation's file may be empty or torn; that is the point. Flush
// and decode failures are joined into the error, and the streams hold
// whatever did decode.
func (c *Cluster) Streams(ctx context.Context) ([][]obs.Event, error) {
	var errs []error
	for _, s := range c.sites {
		if !c.procs[s].alive {
			continue
		}
		fctx, cancel := context.WithTimeout(ctx, callTimeout)
		code, body, err := c.Post(fctx, s, "/flush")
		cancel()
		if err != nil || code != http.StatusOK {
			errs = append(errs, fmt.Errorf("flush site %v: code=%d err=%v body=%s", s, code, err, body))
		}
	}
	streams := make([][]obs.Event, 0, len(c.sites))
	for _, s := range c.sites {
		var evs []obs.Event
		for g, path := range c.procs[s].exports {
			if g > 0 {
				evs = append(evs, obs.Event{Type: obs.EvSiteCrash, Site: s, Detail: obs.DetailSigkill})
			}
			got, err := export.DecodeFile(path)
			if err != nil {
				errs = append(errs, fmt.Errorf("decode %s: %w", filepath.Base(path), err))
				continue
			}
			evs = append(evs, got...)
		}
		streams = append(streams, evs)
	}
	return streams, errors.Join(errs...)
}
