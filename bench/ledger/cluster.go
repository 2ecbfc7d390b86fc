package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fixed shape shared by every workload (see README.md, "Fixed shape").
const (
	numSites = 3
	numItems = 4096
	// victim is the site that only participates and is the one killed.
	victim = 3
)

// itemName is the i-th logical item, k00000…k04095.
func itemName(i int) string { return fmt.Sprintf("k%05d", i) }

// clusterConfig is what differs between workloads on the srnode command line.
type clusterConfig struct {
	store     string // "mem" or "disk"
	poolPages int    // -pool-pages; 0 leaves srnode's default
	identify  string // -identify; empty leaves srnode's default
	export    bool   // start srnodes with -export (the traced runs)
}

// cluster is one live 3-process srnode cluster. Every process is the leader
// of its own process group, so kill reaches anything it may have started.
type cluster struct {
	bin   string
	dir   string // logs and exports; inside the checkout
	state string // statedirs root; empty when the workload has no statedir
	cfg   clusterConfig
	peers string
	ctrl  [numSites + 1]string
	http  *http.Client

	mu    sync.Mutex
	procs [numSites + 1]*proc
	gen   [numSites + 1]int
	start time.Time // exec of the first srnode
	wal   [numSites + 1]walSeen
}

// proc is one running srnode; exited closes once it has been reaped.
type proc struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// liveClusters is what killAll reaps on exit, signal and panic.
var (
	liveMu       sync.Mutex
	liveClusters = map[*cluster]bool{}
)

// startCluster spawns the three sites and waits until each reports itself
// operational, polling /status every 2 ms.
func startCluster(bin, runDir, stateRoot string, cfg clusterConfig) (*cluster, error) {
	dir, err := os.MkdirTemp(runDir, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, dir: dir, cfg: cfg, http: &http.Client{Timeout: 90 * time.Second}}
	if cfg.store == "disk" {
		if c.state, err = os.MkdirTemp(stateRoot, "srledger-state-"); err != nil {
			return nil, err
		}
	}
	var peers []string
	for s := 1; s <= numSites; s++ {
		peerAddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if c.ctrl[s], err = freeAddr(); err != nil {
			return nil, err
		}
		peers = append(peers, fmt.Sprintf("%d=%s", s, peerAddr))
	}
	c.peers = strings.Join(peers, ",")

	liveMu.Lock()
	liveClusters[c] = true
	liveMu.Unlock()

	c.start = time.Now()
	for s := 1; s <= numSites; s++ {
		if err := c.spawn(s, false); err != nil {
			c.stop()
			return nil, err
		}
	}
	for s := 1; s <= numSites; s++ {
		if err := c.waitStatus(s, true); err != nil {
			err = fmt.Errorf("site %d never became operational: %w\n--- srnode log ---\n%s", s, err, c.log(s))
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) logPath(site int) string {
	return filepath.Join(c.dir, fmt.Sprintf("site%d.log", site))
}

func (c *cluster) log(site int) string {
	b, _ := os.ReadFile(c.logPath(site))
	return string(b)
}

func (c *cluster) exportPath(site, gen int) string {
	return filepath.Join(c.dir, fmt.Sprintf("site%d.gen%d.jsonl", site, gen))
}

func (c *cluster) stateDir(site int) string {
	return filepath.Join(c.state, fmt.Sprintf("site%d", site))
}

// spawn launches site's next incarnation; startDown relaunches a killed site
// over the same statedir and addresses, down until POST /recover.
func (c *cluster) spawn(site int, startDown bool) error {
	items := make([]string, numItems)
	for i := range items {
		items[i] = itemName(i)
	}
	args := []string{
		"-site", fmt.Sprint(site),
		"-peers", c.peers,
		"-items", strings.Join(items, ","),
		"-control", c.ctrl[site],
		"-lock", "wound",
		"-store", c.cfg.store,
		"-epoch", fmt.Sprint(c.gen[site]),
	}
	if c.cfg.store == "disk" {
		args = append(args, "-statedir", c.stateDir(site))
	}
	if c.cfg.poolPages > 0 {
		args = append(args, "-pool-pages", fmt.Sprint(c.cfg.poolPages))
	}
	if c.cfg.identify != "" {
		args = append(args, "-identify", c.cfg.identify)
	}
	if c.cfg.export {
		args = append(args, "-export", c.exportPath(site, c.gen[site]))
	}
	if startDown {
		args = append(args, "-start-down")
	}
	logFile, err := os.OpenFile(c.logPath(site), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logFile.Close()
	cmd := exec.Command(c.bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Own process group so kill reaches descendants; Pdeathsig so a harness
	// that is itself SIGKILLed leaves no srnode behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn site %d: %w", site, err)
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // "signal: killed" is the expected outcome
		close(p.exited)
	}()
	c.mu.Lock()
	c.procs[site] = p
	c.gen[site]++
	c.mu.Unlock()
	return nil
}

// pid is the current process of site, 0 when it was killed.
func (c *cluster) pid(site int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.procs[site] == nil {
		return 0
	}
	return c.procs[site].cmd.Process.Pid
}

// kill SIGKILLs site's process group and waits until the process is reaped.
func (c *cluster) kill(site int) {
	c.mu.Lock()
	p := c.procs[site]
	c.procs[site] = nil
	c.mu.Unlock()
	if p == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // group may already be gone
	<-p.exited
}

// stop kills every site and removes the cluster's files.
func (c *cluster) stop() {
	for s := 1; s <= numSites; s++ {
		c.kill(s)
	}
	if c.state != "" {
		os.RemoveAll(c.state)
	}
	os.RemoveAll(c.dir)
	liveMu.Lock()
	delete(liveClusters, c)
	liveMu.Unlock()
}

// killAll stops every live cluster; main runs it on exit, signal and panic.
func killAll() {
	liveMu.Lock()
	var cs []*cluster
	for c := range liveClusters {
		cs = append(cs, c)
	}
	liveMu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

func (c *cluster) url(site int, path string) string {
	return "http://" + c.ctrl[site] + path
}

// getJSON decodes a control-plane GET into out.
func (c *cluster) getJSON(site int, path string, out any) error {
	resp, err := c.http.Get(c.url(site, path))
	if err != nil {
		return err
	}
	return decodeReply(resp, fmt.Sprintf("GET %s at site %d", path, site), out)
}

// postJSON issues a body-less control-plane POST and decodes the reply into
// out, or discards it when out is nil.
func (c *cluster) postJSON(site int, path string, out any) error {
	resp, err := c.http.Post(c.url(site, path), "application/json", nil)
	if err != nil {
		return err
	}
	return decodeReply(resp, fmt.Sprintf("POST %s at site %d", path, site), out)
}

func decodeReply(resp *http.Response, what string, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", what, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitStatus polls /status every 2 ms until the site answers and, when
// operational is set, reports itself up and operational. It gives up at once
// when the process has exited.
func (c *cluster) waitStatus(site int, operational bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c.mu.Lock()
	p := c.procs[site]
	c.mu.Unlock()
	var lastErr error
	for ctx.Err() == nil {
		select {
		case <-p.exited:
			return fmt.Errorf("srnode exited: %v", p.cmd.ProcessState)
		default:
		}
		var st struct {
			Up          bool `json:"up"`
			Operational bool `json:"operational"`
		}
		lastErr = c.getJSON(site, "/status", &st)
		if lastErr == nil && (!operational || (st.Up && st.Operational)) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("timed out: %v", lastErr)
}

// recoverReply is srnode's POST /recover response.
type recoverReply struct {
	DataCopies   int `json:"dataCopies"`
	VersionSkips int `json:"versionSkips"`
}

// nextPort walks 20000–29999, below the kernel's ephemeral range, starting
// at a point the pid picks so that concurrent harnesses start apart.
var nextPort = 20000 + os.Getpid()*37%10000

// freeAddr reserves a localhost port by binding and releasing it; the child
// rebinds it. Port 0 would not do: the kernel hands out ephemeral ports, and
// between the release and srnode's bind one of the harness's or srnode's own
// outgoing connections can be given the same number ("address already in
// use", seen once in ~400 set-ups).
func freeAddr() (string, error) {
	var lastErr error
	for try := 0; try < 1000; try++ {
		port := nextPort
		if nextPort++; nextPort >= 30000 {
			nextPort = 20000
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			lastErr = err
			continue
		}
		addr := ln.Addr().String()
		return addr, ln.Close()
	}
	return "", fmt.Errorf("no free port in 20000-29999: %w", lastErr)
}
