package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"siterecovery/internal/proto"
)

// workload is one traffic mix and the srnode configuration it runs on.
type workload struct {
	name      string
	why       string
	readShare float64
	cluster   clusterConfig
	// crash splits the interval in three: steady, site 3 killed, site 3
	// recovered, with clients drained around the kill and the recovery.
	crash bool
}

var workloads = []workload{
	{
		name:      "oltp-mem",
		why:       "half reads, mem store, no statedir: proto, tcpnet, txn and dm do the work; wal sink and storage/disk do none",
		readShare: 0.5,
		cluster:   clusterConfig{store: "mem"},
	},
	{
		name:      "oltp-durable",
		why:       "same traffic on the disk store with a pool of 8 of ~36 pages: adds the fsync WAL sink, redo logging, eviction and page flush",
		readShare: 0.5,
		cluster:   clusterConfig{store: "disk", poolPages: 8},
	},
	{
		name:      "read-mostly",
		why:       "nine reads in ten, mem store: ~2/3 of txns never leave the coordinator, so HTTP, txn begin, S-locks and local reads dominate",
		readShare: 0.9,
		cluster:   clusterConfig{store: "mem"},
	},
	{
		name:      "crash-recover",
		why:       "the paper's subject: steady, site 3 SIGKILLed, then respawned and recovered by redo and versiondiff copiers, clients drained around both",
		readShare: 0.5,
		cluster:   clusterConfig{store: "disk", identify: "versiondiff"},
		crash:     true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// setupReps is how many times a run sets a cluster up; setup_s is the
	// median, and the last cluster is the one measured.
	setupReps = 3
	// warmupTxns is the fixed count of mix transactions each client runs
	// after the preload, inside set-up.
	warmupTxns = 1000
	// verifySample is how many keys are read back at every site.
	verifySample = 512
)

// bench carries what every run shares.
type bench struct {
	bin       string // built srnode
	runDir    string // logs and exports, inside the checkout
	stateRoot string // where statedirs are made
}

// result is what one run of one workload measured.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	correct   bool
}

// segment is one measured phase with the counter movement across it.
type segment struct {
	phase   phase
	windows int // whole seconds of the phase that count as windows
	delta   probe
	cpu     cpuUse // consumed during the phase
}

// setup is one set-up: the cluster and clients it leaves ready, and what it
// cost.
type setup struct {
	cl      *cluster
	clients []*client
	wall    time.Duration // first exec → end of warm-up
	// perTxn is the load generator's CPU time per warm-up transaction: the
	// host's speed during this set-up (see refCost).
	perTxn time.Duration
	rssKiB uint64 // Σ srnode VmRSS at the end of warm-up
}

// setUp spawns a cluster, preloads every key and warms up.
func (b *bench) setUp(w workload, seed int64, traced bool) (s setup, err error) {
	cfg := w.cluster
	cfg.export = traced
	cl, err := startCluster(b.bin, b.runDir, b.stateRoot, cfg)
	if err != nil {
		return setup{}, err
	}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	s = setup{cl: cl, clients: make([]*client, numClients)}
	for c := range s.clients {
		// Client c coordinates at site c+1; site 3 only participates.
		s.clients[c] = newClient(c, cl.url(c+1, "/txn"), newTxnGen(seed, c, w.readShare))
	}
	if err := preload(s.clients); err != nil {
		return setup{}, err
	}
	cpu0, err := selfCPU()
	if err != nil {
		return setup{}, err
	}
	runPhase(s.clients, phaseEnd{count: warmupTxns})
	cpu1, err := selfCPU()
	if err != nil {
		return setup{}, err
	}
	s.wall = time.Since(cl.start)
	s.perTxn = (cpu1 - cpu0) / (numClients * warmupTxns)
	s.rssKiB = cl.rssKiB()
	return s, nil
}

// refCost defines the reference host speed: the one at which the load
// generator spends exactly this much CPU on a transaction. The harness does
// the same work for every transaction of a workload — draw, JSON-encode,
// POST, read the reply — so what it spends tracks the speed of the host over
// the very seconds being measured, and a time multiplied by
// refCost ÷ (load generator CPU per transaction) is that time at reference
// speed. README.md, "Why reference speed", has the numbers that made this
// necessary: the host's speed moves by a quarter within minutes.
const refCost = 100 * time.Microsecond

// atRef scales a duration measured while the load generator spent perTxn of
// CPU per transaction to reference speed.
func atRef(d, perTxn time.Duration) time.Duration {
	if perTxn <= 0 {
		return 0
	}
	return time.Duration(float64(d) * float64(refCost) / float64(perTxn))
}

// rssKiB sums VmRSS over the live srnodes.
func (c *cluster) rssKiB() uint64 {
	var sum uint64
	for s := 1; s <= numSites; s++ {
		if pid := c.pid(s); pid != 0 {
			kib, _ := rssKiB(pid) // a site that died shows up in verify
			sum += kib
		}
	}
	return sum
}

// run executes one workload once: set-up (setups times over, keeping the
// last cluster), the measured interval, verify. A traced run starts srnode
// with -export and adds the per-layer metrics.
func (b *bench) run(w workload, seed int64, seconds int, traced bool, setups int) (*result, error) {
	var (
		st                      setup
		setupS, setupWall, rssS []float64
	)
	for i := 0; i < setups; i++ {
		if st.cl != nil {
			st.cl.stop()
		}
		var err error
		if st, err = b.setUp(w, seed, traced); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, atRef(st.wall, st.perTxn).Seconds())
		setupWall = append(setupWall, st.wall.Seconds())
		rssS = append(rssS, float64(st.rssKiB)/1024)
	}
	cl, clients := st.cl, st.clients
	defer cl.stop()

	m := map[string]float64{
		"setup_s":      median(setupS),
		"setup_wall_s": median(setupWall),
		"rss_mb":       median(rssS),
	}
	var segs []segment
	measure := func(seconds int) (segment, error) {
		before, err := cl.probe()
		if err != nil {
			return segment{}, err
		}
		cpu0, err := cl.cpuUse()
		if err != nil {
			return segment{}, err
		}
		p := runPhase(clients, phaseEnd{deadline: time.Now().Add(time.Duration(seconds) * time.Second)})
		cpu1, err := cl.cpuUse()
		if err != nil {
			return segment{}, err
		}
		after, err := cl.probe()
		if err != nil {
			return segment{}, err
		}
		s := segment{phase: p, windows: seconds, delta: after.sub(before), cpu: cpu1.sub(cpu0)}
		segs = append(segs, s)
		return s, nil
	}

	if !w.crash {
		if _, err := measure(seconds); err != nil {
			return nil, err
		}
	} else {
		steady, degraded, recovered := splitThree(seconds)
		if _, err := measure(steady); err != nil {
			return nil, err
		}
		cl.kill(victim)
		deg, err := measure(degraded)
		if err != nil {
			return nil, err
		}
		m["session.exclusion_ms"] = ms(maxGap(deg.phase.start, time.Duration(degraded)*time.Second, deg.phase.commits))
		m["session.degraded_tps"] = median(windowCounts(deg.phase.start, deg.windows, deg.phase.commits))
		rec, err := cl.respawnAndRecover()
		if err != nil {
			return nil, fmt.Errorf("%s: quiesced recovery: %w", w.name, err)
		}
		m["recovery.recover_s"] = rec.total.Seconds()
		m["disk.restart_redo_ms"] = ms(rec.restart)
		m["disk.redo_applied"] = float64(rec.redoApplied)
		m["recovery.data_copies"] = float64(rec.reply.DataCopies)
		m["recovery.version_skips"] = float64(rec.reply.VersionSkips)
		m["recovery.copies_per_s"] = float64(rec.reply.DataCopies) / (rec.total - rec.restart).Seconds()
		if _, err := measure(recovered); err != nil {
			return nil, err
		}
		if traced {
			// Recovery with clients running: informational, known noisy.
			cl.kill(victim)
			runPhase(clients, phaseEnd{deadline: time.Now().Add(time.Duration(degraded) * time.Second)})
			stop := make(chan struct{})
			done := make(chan phase, 1)
			go func() { done <- runPhase(clients, phaseEnd{stop: stop}) }()
			rec, err := cl.respawnAndRecover()
			close(stop)
			during := <-done
			if err != nil {
				return nil, fmt.Errorf("%s: recovery under load: %w", w.name, err)
			}
			m["recovery.under_load_s"] = rec.total.Seconds()
			m["recovery.user_tps_during"] = float64(len(during.commits)) / during.end.Sub(during.start).Seconds()
		}
	}

	endToEnd(m, segs, cl)
	if traced {
		if err := perLayer(m, segs, cl); err != nil {
			return nil, fmt.Errorf("%s: per-layer: %w", w.name, err)
		}
	}

	res := &result{metrics: m, correct: true}
	for _, c := range clients {
		res.attempted += c.attempted
		res.failed += c.failed
		if c.firstErr != "" {
			fmt.Printf("%s: client %d first failure: %s\n", w.name, c.id, c.firstErr)
		}
	}
	mismatches, err := verify(cl, clients, seed, w.crash)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	for _, mm := range mismatches {
		fmt.Printf("%s: MISMATCH %s\n", w.name, mm)
	}
	res.correct = len(mismatches) == 0
	return res, nil
}

// splitThree cuts seconds into three whole-second parts; a remainder goes to
// the first and last so the degraded part is never the longest.
func splitThree(seconds int) (steady, degraded, recovered int) {
	degraded = seconds / 3
	recovered = (seconds - degraded) / 2
	return seconds - degraded - recovered, degraded, recovered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd fills the metrics a user of the cluster would see: raw, and the
// timings scaled to reference speed (see refCost).
func endToEnd(m map[string]float64, segs []segment, cl *cluster) {
	var windows []float64
	var lats []time.Duration
	var cpu cpuUse
	for _, s := range segs {
		windows = append(windows, windowCounts(s.phase.start, s.windows, s.phase.commits)...)
		for _, c := range s.phase.commits {
			lats = append(lats, c.latency)
		}
		cpu.add(s.cpu)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	commits := len(lats)
	if commits == 0 {
		return // run reports the missing metrics as zeros and the failures
	}
	perTxn := cpu.loadgen / time.Duration(commits)
	perCommit := cpu.srnode / time.Duration(commits)
	p50, p95 := percentile(lats, 0.50), percentile(lats, 0.95)
	m["commit_samples"] = float64(commits)
	m["throughput_tps"] = median(windows)
	// The first phase's throughput at reference speed: what a traced run and
	// its untraced reference are compared by.
	m["steady_ref_tps"] = median(windowCounts(segs[0].phase.start, segs[0].windows, segs[0].phase.commits)) * float64(perTxn) / float64(refCost)
	m["commit_p50_us"] = us(p50)
	m["commit_p95_us"] = us(p95)
	m["cpu_ms_per_commit"] = ms(perCommit)
	m["loadgen.cpu_ms_per_commit"] = ms(perTxn)
	m["commit_p50_ref_us"] = us(atRef(p50, perTxn))
	m["commit_p95_ref_us"] = us(atRef(p95, perTxn))
	m["cpu_ref_ms_per_commit"] = ms(atRef(perCommit, perTxn))
	m["rss_end_mb"] = float64(cl.rssKiB()) / 1024
	m["host.steal_pct"] = 100 * ratio(float64(cpu.steal), float64(cpu.total))
}

// recovery is what one respawn-and-recover of site 3 measured.
type recovery struct {
	restart     time.Duration // exec → /status answers: process start plus redo
	total       time.Duration // exec → POST /recover returns
	redoApplied int
	reply       recoverReply
}

// respawnAndRecover relaunches site 3 down over its statedir and runs the
// paper's recovery; POST /recover returns once every copy is current.
func (c *cluster) respawnAndRecover() (recovery, error) {
	var r recovery
	start := time.Now()
	if err := c.spawn(victim, true); err != nil {
		return r, err
	}
	if err := c.waitStatus(victim, false); err != nil {
		return r, fmt.Errorf("respawned site never answered: %w\n--- srnode log ---\n%s", err, c.log(victim))
	}
	r.restart = time.Since(start)
	st, err := c.storage(victim)
	if err != nil {
		return r, err
	}
	r.redoApplied = st.RedoApplied
	if err := c.postJSON(victim, "/recover", &r.reply); err != nil {
		return r, err
	}
	r.total = time.Since(start)
	return r, nil
}

// verify reads keys back with GET /storage?item= and compares them with the
// value their one writer last had acknowledged: a sample at every site, and
// after a crash workload every key at site 3.
func verify(cl *cluster, clients []*client, seed int64, allAtVictim bool) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	sample := rng.Perm(numItems)[:verifySample]
	var bad []string
	check := func(site, idx int) error {
		item := proto.Item(itemName(idx))
		owner := clients[idx%numClients]
		if owner.uncertain[item] {
			return nil
		}
		var got struct {
			Value      proto.Value `json:"value"`
			Unreadable bool        `json:"unreadable"`
		}
		if err := cl.getJSON(site, "/storage?item="+string(item), &got); err != nil {
			return err
		}
		if want := owner.last[item]; got.Unreadable || got.Value != want {
			bad = append(bad, fmt.Sprintf("site %d item %s: got %d (unreadable=%v), want %d", site, item, got.Value, got.Unreadable, want))
		}
		return nil
	}
	for s := 1; s <= numSites; s++ {
		for _, idx := range sample {
			if err := check(s, idx); err != nil {
				return nil, err
			}
		}
	}
	if allAtVictim {
		for idx := 0; idx < numItems; idx++ {
			if err := check(victim, idx); err != nil {
				return nil, err
			}
		}
	}
	return bad, nil
}

// countLines counts newlines in path from byte offset from to its end.
func countLines(path string, from int64) (lines int64, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, 0, err
	}
	buf := make([]byte, 256<<10)
	size = from
	for {
		n, err := f.Read(buf)
		lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
		size += int64(n)
		if err == io.EOF {
			return lines, size, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

func (c *cluster) walPath(site int) string { return filepath.Join(c.stateDir(site), "wal.jsonl") }
