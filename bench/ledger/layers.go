package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/proto"
	"siterecovery/internal/storage/disk"
)

// probe is every counter the harness can read from outside a cluster, summed
// over the live sites, by name: the _sum, _count and _total samples of
// /metrics under their own names, the buffer-pool counters of GET /storage as
// pool.*, and the size and line count of the wal.jsonl files as wal.*. Sites
// restart between phases, never inside one, so a probe before and one after a
// phase bracket exactly the phase's work.
type probe map[string]float64

// cpuUse is CPU time consumed so far: by the live srnodes and by this
// process, the load generator. It is sampled right around a phase, inside
// the probes, so that scraping is charged to neither.
type cpuUse struct {
	srnode, loadgen time.Duration
	// steal and total are host-wide clock ticks from the first line of
	// /proc/stat: time the hypervisor gave to someone else while a CPU here
	// was runnable, and all time.
	steal, total uint64
}

func (u cpuUse) sub(before cpuUse) cpuUse {
	return cpuUse{u.srnode - before.srnode, u.loadgen - before.loadgen, u.steal - before.steal, u.total - before.total}
}

func (u *cpuUse) add(d cpuUse) {
	u.srnode += d.srnode
	u.loadgen += d.loadgen
	u.steal += d.steal
	u.total += d.total
}

// selfCPU is this process's utime+stime from getrusage, which unlike
// /proc/self/stat is not rounded down to 10 ms ticks: set-up is timed
// against it over less than a second of CPU.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (c *cluster) cpuUse() (cpuUse, error) {
	var u cpuUse
	var err error
	if u.loadgen, err = selfCPU(); err != nil {
		return u, err
	}
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return u, err
	}
	if u.steal, u.total, err = parseHostStat(string(stat)); err != nil {
		return u, err
	}
	for s := 1; s <= numSites; s++ {
		if pid := c.pid(s); pid != 0 {
			t, err := cpuTime(pid)
			if err != nil {
				return u, fmt.Errorf("site %d: %w\n--- srnode log ---\n%s", s, err, c.log(s))
			}
			u.srnode += t
		}
	}
	return u, nil
}

// walSeen caches how far each wal.jsonl has been line-counted.
type walSeen struct{ size, lines int64 }

func (c *cluster) storage(site int) (disk.Stats, error) {
	var reply struct {
		Stats disk.Stats `json:"stats"` // absent for the mem engine
	}
	err := c.getJSON(site, "/storage", &reply)
	return reply.Stats, err
}

func (c *cluster) probe() (probe, error) {
	p := probe{}
	for s := 1; s <= numSites; s++ {
		if c.pid(s) == 0 {
			continue
		}
		resp, err := c.http.Get(c.url(s, "/metrics"))
		if err != nil {
			return nil, err
		}
		samples, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for k, v := range samples {
			p[k] += v
		}

		st, err := c.storage(s)
		if err != nil {
			return nil, err
		}
		p["pool.hits"] += float64(st.PoolHits)
		p["pool.misses"] += float64(st.PoolMisses)
		p["pool.evictions"] += float64(st.Evictions)
		p["pool.flushes"] += float64(st.Flushes)
	}
	if c.state != "" {
		// Dead sites count too: their log is still on disk, and skipping it
		// would show as a negative delta across the kill.
		for s := 1; s <= numSites; s++ {
			lines, size, err := countLines(c.walPath(s), c.wal[s].size)
			if err != nil {
				return nil, err
			}
			c.wal[s] = walSeen{size: size, lines: c.wal[s].lines + lines}
			p["wal.bytes"] += float64(size)
			p["wal.records"] += float64(c.wal[s].lines)
		}
	}
	return p, nil
}

// sub is the movement from before to p. Counters of a site that restarted
// in between would go backwards; callers never probe across a restart.
func (p probe) sub(before probe) probe {
	d := probe{}
	for k, v := range p {
		d[k] = v - before[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rpcKinds are the message kinds of the write path, the ones the per-kind
// RPC metrics are reported for.
var rpcKinds = []string{"write", "prepare", "commit"}

// perLayer fills the layer metrics of a traced run from the counter movement
// over its measured phases and from the span export.
func perLayer(m map[string]float64, segs []segment, cl *cluster) error {
	d := probe{}
	var commits float64
	var clientLat time.Duration
	for _, s := range segs {
		for k, v := range s.delta {
			d[k] += v
		}
		commits += float64(len(s.phase.commits))
		for _, c := range s.phase.commits {
			clientLat += c.latency
		}
	}
	if commits == 0 {
		return fmt.Errorf("no commits in the measured interval")
	}

	m["txn.commit_mean_us"] = ratio(d["sr_txn_commit_latency_us_sum"], d["sr_txn_commit_latency_us_count"])
	m["srnode.http_overhead_us"] = us(clientLat)/commits - m["txn.commit_mean_us"]
	m["txn.attempts_per_commit"] = ratio(d["sr_txn_attempts_sum"], d["sr_txn_attempts_count"])
	var sent float64
	for name, v := range d {
		if strings.HasPrefix(name, "sr_net_sent_") {
			sent += v
		}
	}
	m["tcpnet.msgs_per_commit"] = sent / commits
	for _, k := range rpcKinds {
		client := ratio(d["sr_rpc_client_latency_us_"+k+"_sum"], d["sr_rpc_client_latency_us_"+k+"_count"])
		server := ratio(d["sr_rpc_server_latency_us_"+k+"_sum"], d["sr_rpc_server_latency_us_"+k+"_count"])
		m["tcpnet.rpc_client_mean_us."+k] = client
		m["dm.rpc_server_mean_us."+k] = server
		m["tcpnet.transit_mean_us."+k] = client - server
	}
	m["lockmgr.timeouts"] = d["sr_txn_abort_lock_timeout_total"]
	m["wal.bytes_per_commit"] = d["wal.bytes"] / commits
	m["wal.records_per_commit"] = d["wal.records"] / commits
	m["disk.pool_hit_ratio"] = ratio(d["pool.hits"], d["pool.hits"]+d["pool.misses"])
	m["disk.evictions_per_kcommit"] = 1000 * d["pool.evictions"] / commits
	m["disk.flushes_per_kcommit"] = 1000 * d["pool.flushes"] / commits

	// Spans. Only the coordinators' exports matter for transaction self time:
	// clients run at sites 1 and 2, which are never killed, so generation 0
	// is their only file.
	var self time.Duration
	var txns int
	for s := 1; s <= numClients; s++ {
		if err := cl.postJSON(s, "/flush", nil); err != nil {
			return err
		}
		events, err := export.DecodeFile(cl.exportPath(s, 0))
		if err != nil {
			return err
		}
		t, n := txnSelfTime(events, func(at time.Time) bool {
			for _, seg := range segs {
				if !at.Before(seg.phase.start) && !at.After(seg.phase.end) {
					return true
				}
			}
			return false
		})
		self += t
		txns += n
	}
	m["txn.self_mean_us"] = ratio(us(self), float64(txns))
	return nil
}

// txnSelfTime walks one coordinator's event stream and sums, over the
// committed user transactions that began where keep says, the transaction
// span's duration minus the union of its child spans (the client sides of
// its RPCs): the time the coordinator itself spent on HTTP-independent
// transaction work, lock waits and local operations.
func txnSelfTime(events []obs.Event, keep func(begin time.Time) bool) (time.Duration, int) {
	type open struct {
		begin    time.Time
		children [][2]time.Time
	}
	live := map[proto.TxnID]*open{}
	var self time.Duration
	var n int
	for _, e := range events {
		switch e.Type {
		case obs.EvTxnBegin:
			if e.Class == proto.ClassUser && keep(e.At) {
				live[e.Txn] = &open{begin: e.At}
			}
		case obs.EvSpanFinish:
			if o := live[e.Txn]; o != nil && strings.HasPrefix(e.Detail, "client:") {
				o.children = append(o.children, [2]time.Time{e.At.Add(-e.Dur), e.At})
			}
		case obs.EvTxnAbort:
			delete(live, e.Txn)
		case obs.EvTxnCommit:
			if o := live[e.Txn]; o != nil {
				self += e.At.Sub(o.begin) - unionWithin(o.children, o.begin, e.At)
				n++
				delete(live, e.Txn)
			}
		}
	}
	return self, n
}

// unionWithin is the length of the union of spans, clipped to [lo, hi].
func unionWithin(spans [][2]time.Time, lo, hi time.Time) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var total time.Duration
	edge := lo // everything before edge is already counted
	for _, s := range spans {
		from, to := s[0], s[1]
		if from.Before(edge) {
			from = edge
		}
		if to.After(hi) {
			to = hi
		}
		if to.After(from) {
			total += to.Sub(from)
			edge = to
		}
	}
	return total
}
