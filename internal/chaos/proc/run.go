package proc

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"siterecovery/internal/chaos"
	"siterecovery/internal/faultproxy"
	"siterecovery/internal/load"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/proto"
	"siterecovery/internal/trace"
)

// Result is everything a process-chaos run produced.
type Result struct {
	Schedule chaos.Schedule  `json:"schedule"`
	Info     chaos.Info      `json:"info"`
	Failures []chaos.Failure `json:"failures,omitempty"`
	// Dir holds the artifacts: per-incarnation exports, combined per-site
	// streams, merged.jsonl, statedirs.
	Dir string `json:"dir"`
	// Merged is the causally ordered cluster timeline (not serialized; read
	// merged.jsonl for the on-disk form).
	Merged trace.Merged `json:"-"`
}

// stepPace is the gap between schedule steps. Transactions run
// asynchronously, so faults issued a step or two after a txn step land while
// its 2PC is still in flight — that interleaving is the whole point.
const stepPace = 25 * time.Millisecond

// stallTearAfter is the byte budget a wedged link forwards before freezing:
// small enough to tear a frame mid-stream, large enough to let the length
// prefix escape.
const stallTearAfter = 64

// Run replays a schedule against a fresh srnode process cluster, quiesces,
// and checks the merged trace plus replica convergence. The returned
// Failures are empty for a passing run; an error means the harness itself
// could not run (no binary, spawn failure), not that an invariant failed.
func Run(ctx context.Context, sched chaos.Schedule, opts Options) (*Result, error) {
	if opts.Bin == "" {
		return nil, fmt.Errorf("proc.Run: Options.Bin is required")
	}
	sites, items := sched.Sites, sched.Items
	if sites == 0 {
		sites = 3
	}
	if items == 0 {
		items = 8
	}
	c, err := startCluster(ctx, opts, sites, items, sched.Identify)
	if err != nil {
		return nil, err
	}
	defer c.stop()

	res := &Result{Schedule: sched, Dir: c.dir}
	r := &runner{c: c, opts: opts, info: &res.Info}
	r.crashed = map[proto.SiteID]bool{}
	r.killed = map[proto.SiteID]bool{}
	r.slowed = map[proto.SiteID]bool{}
	r.stalled = map[proto.SiteID]bool{}
	r.txnSem = make(chan struct{}, 8)

	for i, step := range sched.Steps {
		if err := ctx.Err(); err != nil {
			r.txnWG.Wait()
			return nil, err
		}
		if r.runStep(ctx, step) {
			res.Info.StepsRun++
		} else {
			res.Info.StepsSkipped++
			opts.logf("step %d skipped: %v", i, step)
		}
		time.Sleep(stepPace)
	}
	res.Info.TxnCommitted = int(r.committed.Load())
	res.Info.TxnAborted = int(r.aborted.Load())

	if fails, err := r.quiesce(ctx); err != nil {
		return nil, err
	} else {
		res.Failures = append(res.Failures, fails...)
	}

	fails, merged, err := r.collectTrace(ctx)
	if err != nil {
		return nil, err
	}
	res.Failures = append(res.Failures, fails...)
	res.Merged = merged
	return res, nil
}

// runner tracks the cluster model while a schedule replays, mirroring the
// netsim runner's bookkeeping: which sites are crashed vs SIGKILLed, which
// links are slowed or wedged. It reports a step as run or skipped (shrunken
// schedules are routinely ill-formed; skipping must be deterministic).
type runner struct {
	c    *cluster
	opts Options
	info *chaos.Info

	crashed map[proto.SiteID]bool // alive process refusing service
	killed  map[proto.SiteID]bool // process dead, awaiting respawn
	slowed  map[proto.SiteID]bool
	stalled map[proto.SiteID]bool

	txnWG     sync.WaitGroup
	txnSem    chan struct{}
	committed atomic.Int64
	aborted   atomic.Int64
}

func (r *runner) down(s proto.SiteID) bool { return r.crashed[s] || r.killed[s] }

func (r *runner) validSite(s proto.SiteID) bool {
	return s >= 1 && int(s) <= len(r.c.sites)
}

// upCount counts sites that are neither crashed nor killed.
func (r *runner) upCount() int {
	n := 0
	for _, s := range r.c.sites {
		if !r.down(s) {
			n++
		}
	}
	return n
}

func (r *runner) runStep(ctx context.Context, step chaos.Step) bool {
	switch step.Kind {
	case chaos.StepCrash:
		if !r.validSite(step.Site) || r.down(step.Site) || r.upCount() < 2 {
			return false
		}
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if _, _, err := r.c.post(cctx, step.Site, "/crash", ""); err != nil {
			return false
		}
		r.crashed[step.Site] = true
		r.info.Crashes++
		return true

	case chaos.StepKill:
		if !r.validSite(step.Site) || r.killed[step.Site] {
			return false
		}
		// A crashed-but-alive site may still be killed (the models differ in
		// what survives), but never the last serving site.
		if !r.crashed[step.Site] && r.upCount() < 2 {
			return false
		}
		r.c.kill(step.Site)
		r.killed[step.Site] = true
		delete(r.crashed, step.Site)
		r.info.Crashes++
		return true

	case chaos.StepRecover:
		if !r.validSite(step.Site) || !r.down(step.Site) {
			return false
		}
		if r.killed[step.Site] {
			if err := r.c.spawn(step.Site, true); err != nil {
				return false
			}
			delete(r.killed, step.Site)
			r.crashed[step.Site] = true
			wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
			err := r.c.waitStatus(wctx, step.Site, false)
			cancel()
			if err != nil {
				return false
			}
		}
		if err := r.recoverSite(ctx, step.Site, 3); err != nil {
			// The site stays down (still crashed); quiesce retries later.
			r.info.FailedRecoveries++
			return true
		}
		delete(r.crashed, step.Site)
		r.info.Recoveries++
		return true

	case chaos.StepPartition:
		if len(step.Groups) == 0 {
			return false
		}
		r.c.proxy.Partition(step.Groups)
		return true

	case chaos.StepHeal:
		r.c.proxy.Heal()
		return true

	case chaos.StepSlow:
		if !r.validSite(step.Site) {
			return false
		}
		delay := time.Duration(step.DelayMS) * time.Millisecond
		if (delay > 0) == r.slowed[step.Site] {
			return false
		}
		r.slowed[step.Site] = delay > 0
		r.c.proxy.Update(func(from, to proto.SiteID, f *faultproxy.Fault) {
			if from == step.Site || to == step.Site {
				f.Delay = delay
			}
		})
		return true

	case chaos.StepStall:
		// The proc runner maps the simulator's copier stall onto the network:
		// every link touching the site wedges mid-stream after a few bytes,
		// leaving torn frames in flight — the hung-write failure mode.
		if !r.validSite(step.Site) || r.stalled[step.Site] {
			return false
		}
		r.stalled[step.Site] = true
		r.c.proxy.Update(func(from, to proto.SiteID, f *faultproxy.Fault) {
			if from == step.Site || to == step.Site {
				f.Stall = true
				f.StallAfter = stallTearAfter
			}
		})
		return true

	case chaos.StepResume:
		if !r.validSite(step.Site) || !r.stalled[step.Site] {
			return false
		}
		delete(r.stalled, step.Site)
		r.c.proxy.Update(func(from, to proto.SiteID, f *faultproxy.Fault) {
			if from == step.Site || to == step.Site {
				f.Stall = false
				f.StallReply = false
				f.StallAfter = 0
			}
		})
		return true

	case chaos.StepTxn:
		if !r.validSite(step.Site) || r.down(step.Site) {
			return false
		}
		req := load.TxnRequest{Reads: step.Reads}
		for i, item := range step.Writes {
			var v proto.Value
			if i < len(step.Values) {
				v = step.Values[i]
			}
			req.Writes = append(req.Writes, load.TxnWrite{Item: item, Value: v})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return false
		}
		site := step.Site
		r.txnWG.Add(1)
		go func() {
			defer r.txnWG.Done()
			r.txnSem <- struct{}{}
			defer func() { <-r.txnSem }()
			tctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			code, _, err := r.c.post(tctx, site, "/txn", string(body))
			if err == nil && code == 200 {
				r.committed.Add(1)
			} else {
				r.aborted.Add(1)
			}
		}()
		return true

	default:
		// Unknown kinds (StepLoss is netsim-only; future vocabulary) skip
		// deterministically, same as the netsim runner.
		return false
	}
}

// recoverSite drives POST /recover with the crash-on-failure fallback: a
// failed recovery can leave the node in a half-claimed limbo, so the harness
// re-crashes it (a no-op for an already-down site) and tries again.
func (r *runner) recoverSite(ctx context.Context, site proto.SiteID, attempts int) error {
	var lastBody []byte
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		code, body, err := r.c.post(rctx, site, "/recover", "")
		cancel()
		if err == nil && code == 200 {
			return nil
		}
		lastBody = body
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		r.c.post(cctx, site, "/crash", "")
		cancel()
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("site %v recovery failed after %d attempts: %s", site, attempts, lastBody)
}

// quiesce drains the run to a stable, fully-up cluster and checks replica
// convergence: clear every network fault, wait out in-flight transactions,
// respawn the killed, recover the down, repair type-2 exclusions (an
// excluded-but-running site must crash and re-recover, as in the simulator's
// quiesce), wait until no site holds a prepared transaction whose decision
// has not landed, then require every site to agree on every item.
func (r *runner) quiesce(ctx context.Context) ([]chaos.Failure, error) {
	var fails []chaos.Failure
	r.c.proxy.ClearAll()
	r.stalled = map[proto.SiteID]bool{}
	r.slowed = map[proto.SiteID]bool{}
	r.txnWG.Wait()

	for _, s := range r.c.sites {
		if !r.killed[s] {
			continue
		}
		if err := r.c.spawn(s, true); err != nil {
			return nil, fmt.Errorf("quiesce respawn: %w", err)
		}
		delete(r.killed, s)
		r.crashed[s] = true
		wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		err := r.c.waitStatus(wctx, s, false)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("quiesce respawn site %v: %w", s, err)
		}
	}
	for _, s := range r.c.sites {
		if !r.crashed[s] {
			continue
		}
		if err := r.recoverSite(ctx, s, 5); err != nil {
			fails = append(fails, chaos.Failure{Invariant: "proc-quiesce", Detail: err.Error()})
			continue
		}
		delete(r.crashed, s)
		r.info.Recoveries++
	}

	// Exclusion repair: a site that considers itself up while some
	// operational peer's committed NS entry for it is NoSession has been
	// type-2 excluded without noticing (§3.3 treats unreachable as crashed).
	// Fail-stop it for real and run recovery.
	for round := 0; round < 10; round++ {
		excluded, err := r.excludedSites(ctx)
		if err != nil {
			fails = append(fails, chaos.Failure{Invariant: "proc-quiesce", Detail: err.Error()})
			break
		}
		if len(excluded) == 0 {
			break
		}
		for _, s := range excluded {
			r.opts.logf("quiesce: repairing excluded site %v", s)
			cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			r.c.post(cctx, s, "/crash", "")
			cancel()
			if err := r.recoverSite(ctx, s, 5); err != nil {
				fails = append(fails, chaos.Failure{Invariant: "proc-quiesce", Detail: err.Error()})
				continue
			}
			r.info.ExclusionRepairs++
		}
	}

	if err := r.waitDecided(ctx); err != nil {
		fails = append(fails, chaos.Failure{Invariant: "proc-quiesce", Detail: err.Error()})
	}
	fails = append(fails, r.checkConverged(ctx)...)
	return fails, nil
}

// waitDecided polls GET /status until every site reports "prepared": 0.
// Phase two is posted, not acknowledged, so a committed client reply does not
// mean the participants have installed: a decision still in flight lands in
// microseconds, one lost to a fault is fetched by the participant's janitor
// (stale age plus a sweep interval), and only then are the copies — and the
// server sides of the posted commit spans in the exports — complete.
func (r *runner) waitDecided(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var pending []string
		for _, s := range r.c.sites {
			sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			var st status
			err := r.c.getJSON(sctx, s, "/status", &st)
			cancel()
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
		time.Sleep(50 * time.Millisecond)
	}
}

// excludedSites reports up sites that some up-and-operational peer's
// committed NS vector lists as NoSession — the process-cluster mirror of the
// netsim quiesce check, read through GET /ns instead of off the stores.
// A site with no operational peer is skipped: repairing it would fail-stop
// the last working site.
func (r *runner) excludedSites(ctx context.Context) ([]proto.SiteID, error) {
	type nsResp struct {
		NS map[string]proto.Session `json:"ns"`
	}
	statuses := map[proto.SiteID]status{}
	vectors := map[proto.SiteID]map[string]proto.Session{}
	for _, s := range r.c.sites {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		var st status
		err := r.c.getJSON(sctx, s, "/status", &st)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("status site %v: %w", s, err)
		}
		statuses[s] = st
		if !st.Up || !st.Operational {
			continue
		}
		sctx, cancel = context.WithTimeout(ctx, 5*time.Second)
		var ns nsResp
		err = r.c.getJSON(sctx, s, "/ns", &ns)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("ns site %v: %w", s, err)
		}
		vectors[s] = ns.NS
	}
	var out []proto.SiteID
	for _, j := range r.c.sites {
		if !statuses[j].Up {
			continue
		}
		hasPeer, excluded := false, false
		for _, p := range r.c.sites {
			if p == j || vectors[p] == nil {
				continue
			}
			hasPeer = true
			if vectors[p][fmt.Sprint(int(j))] == proto.NoSession {
				excluded = true
			}
		}
		if hasPeer && excluded {
			out = append(out, j)
		}
	}
	return out, nil
}

// checkConverged requires every site to serve the same committed value for
// every item, with a retry window for in-flight copier refreshes to land.
func (r *runner) checkConverged(ctx context.Context) []chaos.Failure {
	deadline := time.Now().Add(30 * time.Second)
	var last []chaos.Failure
	for {
		last = nil
		for _, item := range r.c.items {
			values := map[proto.SiteID]proto.Value{}
			for _, s := range r.c.sites {
				rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				var out struct {
					Value proto.Value `json:"value"`
				}
				err := r.c.getJSON(rctx, s, "/read?item="+string(item), &out)
				cancel()
				if err != nil {
					last = append(last, chaos.Failure{
						Invariant: "proc-convergence",
						Detail:    fmt.Sprintf("read %q at site %v: %v", item, s, err),
					})
					continue
				}
				values[s] = out.Value
			}
			var want proto.Value
			first := true
			for _, s := range r.c.sites {
				v, ok := values[s]
				if !ok {
					continue
				}
				if first {
					want, first = v, false
					continue
				}
				if v != want {
					last = append(last, chaos.Failure{
						Invariant: "proc-convergence",
						Detail:    fmt.Sprintf("item %q diverged: %v", item, values),
					})
					break
				}
			}
		}
		if len(last) == 0 || time.Now().After(deadline) || ctx.Err() != nil {
			return last
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// collectTrace flushes every live incarnation's export, concatenates each
// site's per-incarnation streams with kill-cut markers where a SIGKILL
// truncated one, writes the combined site streams and the causally merged
// timeline, and runs the full trace-invariant suite.
func (r *runner) collectTrace(ctx context.Context) ([]chaos.Failure, trace.Merged, error) {
	var fails []chaos.Failure
	for _, s := range r.c.sites {
		if !r.c.procs[s].alive {
			continue
		}
		fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		code, body, err := r.c.post(fctx, s, "/flush", "")
		cancel()
		if err != nil || code != 200 {
			fails = append(fails, chaos.Failure{
				Invariant: "proc-export",
				Detail:    fmt.Sprintf("flush site %v: code=%d err=%v body=%s", s, code, err, body),
			})
		}
	}

	streams := make([][]obs.Event, 0, len(r.c.sites))
	for _, s := range r.c.sites {
		p := r.c.procs[s]
		var evs []obs.Event
		for g, path := range p.exports {
			if g > 0 {
				// The previous incarnation died by SIGKILL; everything it had
				// not flushed is gone. The marker tells the trace invariants
				// to treat state open at this site as lost, not violated.
				evs = append(evs, obs.Event{Type: obs.EvSiteCrash, Site: s, Detail: obs.DetailSigkill})
			}
			got, err := export.DecodeFile(path)
			if err != nil {
				fails = append(fails, chaos.Failure{
					Invariant: "proc-export",
					Detail:    fmt.Sprintf("decode %s: %v", filepath.Base(path), err),
				})
				continue
			}
			evs = append(evs, got...)
		}
		if err := writeJSONL(filepath.Join(r.c.dir, fmt.Sprintf("site%d.jsonl", s)), evs); err != nil {
			return nil, trace.Merged{}, err
		}
		streams = append(streams, evs)
	}

	merged := trace.Merge(streams...)
	if err := writeJSONL(filepath.Join(r.c.dir, "merged.jsonl"), merged.Events); err != nil {
		return nil, trace.Merged{}, err
	}
	fails = append(fails, chaos.CheckTrace(merged, chaos.TraceSuite())...)
	return fails, merged, nil
}

// writeJSONL writes events one JSON object per line, the same wire form the
// exporters produce, so srtrace and srcheck read harness artifacts directly.
func writeJSONL(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
