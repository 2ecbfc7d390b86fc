package chaos

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/core"
	"siterecovery/internal/load"
	"siterecovery/internal/obs"
	"siterecovery/internal/obs/export"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

// Options tunes a chaos run.
type Options struct {
	// Invariants is the post-run suite; DefaultSuite() if nil. Tests
	// append extra (deliberately weakened) invariants here to prove the
	// engine catches and shrinks violations.
	Invariants []Invariant
}

// RunResult is everything one chaos run produced.
type RunResult struct {
	Schedule Schedule
	// Trace is the full observability event stream as JSONL, stamped by a
	// logical step clock: byte-identical across runs of the same
	// schedule.
	Trace []byte
	Info  Info
	// Failures lists every violated invariant; empty means the run
	// passed.
	Failures []Failure
}

// Failed reports whether any invariant was violated.
func (r RunResult) Failed() bool { return len(r.Failures) > 0 }

// Run executes a schedule against a fresh cluster, strictly sequentially:
// no background detector, janitor, or copier pool runs, the network has
// zero latency, and every protocol action happens inside the step loop, so
// each (schedule, seed) pair deterministically produces one event stream.
// Copier transactions are interleaved one item at a time between steps
// (copierTick), preserving the paper's copiers-run-concurrently semantics
// without a scheduler. After the plan, Run quiesces the cluster — heals,
// resumes, recovers everything, sweeps stranded 2PC state, drains copiers,
// resolves totally failed items — and checks the invariant suite.
func Run(ctx context.Context, sched Schedule, opts Options) (RunResult, error) {
	if len(opts.Invariants) == 0 {
		opts.Invariants = DefaultSuite()
	}
	ident, err := recovery.ParseIdentify(sched.Identify)
	if err != nil {
		return RunResult{}, fmt.Errorf("schedule: %w", err)
	}

	var traceBuf bytes.Buffer
	sink := export.NewJSONL(&traceBuf)
	hub := obs.NewHub(obs.Options{
		Clock: clock.NewStep(time.Unix(0, 0).UTC(), time.Millisecond),
		Sinks: []obs.Sink{sink},
	})
	cluster, err := core.New(core.Config{
		Sites:             sched.Sites,
		Placement:         workload.UniformPlacement(sched.Items, sched.Degree, sched.Sites, sched.Seed),
		Identify:          ident,
		Seed:              sched.Seed,
		MaxAttempts:       2,
		RetryBackoff:      time.Millisecond,
		LockTimeout:       25 * time.Millisecond,
		JanitorStaleAge:   time.Nanosecond,
		DisableBackground: true,
		CopierWorkers:     -1,
		Obs:               hub,
	})
	if err != nil {
		return RunResult{}, err
	}
	cluster.Start()
	defer cluster.Stop()

	r := &runner{c: cluster, sessions: make(map[proto.SiteID]proto.Session)}
	for _, s := range cluster.Sites() {
		r.sessions[s] = core.InitialSession
	}

	for _, step := range sched.Steps {
		if err := ctx.Err(); err != nil {
			return RunResult{}, err
		}
		if r.apply(ctx, step) {
			r.info.StepsRun++
		} else {
			r.info.StepsSkipped++
		}
		r.copierTick(ctx)
	}
	if err := r.quiesce(ctx); err != nil {
		return RunResult{}, err
	}

	if err := sink.Flush(); err != nil {
		return RunResult{}, fmt.Errorf("flush trace: %w", err)
	}
	return RunResult{
		Schedule: sched,
		Trace:    append([]byte(nil), traceBuf.Bytes()...),
		Info:     r.info,
		Failures: Check(cluster, r.info, opts.Invariants),
	}, nil
}

type runner struct {
	c    *core.Cluster
	info Info
	// sessions remembers each site's last known session number, the
	// observation a type-2 claim must carry.
	sessions map[proto.SiteID]proto.Session
}

// apply executes one step and reports whether it was applied (false: the
// step was invalid in the current state — shrinking removes steps, so a
// subset schedule can, say, crash an already-down site — and was skipped
// deterministically).
func (r *runner) apply(ctx context.Context, step Step) bool {
	c := r.c
	switch step.Kind {
	case StepCrash:
		s := c.Site(step.Site)
		if s == nil || !s.Up() {
			return false
		}
		if r.operationalPeer(step.Site) == 0 {
			return false // never take the last working site down
		}
		c.Crash(step.Site)
		r.info.Crashes++
		// With the failure detector disabled, the chaos engine plays the
		// observer's role: the lowest surviving operational site issues
		// the type-2 control transaction. It may fail (loss burst,
		// partition, stranded locks) — then the crashed site simply stays
		// nominally up and writes keep failing against it, which is a
		// state the protocol must also survive.
		claimer := r.operationalPeer(step.Site)
		if err := c.Site(claimer).Session.ClaimDown(ctx, step.Site, r.sessions[step.Site]); err != nil {
			r.info.FailedClaims++
		} else {
			r.info.ClaimsDown++
		}
		return true
	case StepRecover:
		s := c.Site(step.Site)
		if s == nil || s.Up() {
			return false
		}
		report, err := c.Recover(ctx, step.Site)
		if err != nil {
			// Recovery died half-way (e.g. the type-1 claim lost a race
			// with a loss burst). Fail-stop the site again so it is in a
			// known state; a later step or the quiesce retries.
			r.info.FailedRecoveries++
			c.Crash(step.Site)
			return true
		}
		r.info.Recoveries++
		r.sessions[step.Site] = report.Session
		return true
	case StepPartition:
		groups := make([][]proto.SiteID, len(step.Groups))
		for i, g := range step.Groups {
			groups[i] = append([]proto.SiteID(nil), g...)
		}
		c.Network().Partition(groups...)
		return true
	case StepHeal:
		c.Network().Heal()
		return true
	case StepLoss:
		c.Network().SetLossRate(step.Loss)
		return true
	case StepStall:
		if s := c.Site(step.Site); s != nil {
			s.Recovery.SetStalled(true)
			return true
		}
		return false
	case StepResume:
		if s := c.Site(step.Site); s != nil {
			s.Recovery.SetStalled(false)
			return true
		}
		return false
	case StepTxn:
		s := c.Site(step.Site)
		if s == nil || !s.Up() || !s.Operational() {
			return false
		}
		t := load.Txn{Reads: step.Reads}
		for i, item := range step.Writes {
			t.Writes = append(t.Writes, load.Write{Item: item, Value: step.Values[i]})
		}
		err := c.Exec(ctx, step.Site, func(ctx context.Context, tx *txn.Tx) error {
			return load.Apply(ctx, tx, t)
		})
		if err != nil {
			r.info.TxnAborted++
		} else {
			r.info.TxnCommitted++
		}
		return true
	default:
		return false
	}
}

// operationalPeer returns the lowest up-and-operational site other than
// excluded, or 0 when none exists.
func (r *runner) operationalPeer(excluded proto.SiteID) proto.SiteID {
	for _, id := range r.c.Sites() {
		if id == excluded {
			continue
		}
		if s := r.c.Site(id); s.Up() && s.Operational() {
			return id
		}
	}
	return 0
}

// excludedSites returns the up sites some operational peer's committed
// session vector claims nominally down. A partitioned type-2 claim creates
// this state; the excluded site cannot detect it itself (its own vector
// copies are stale), so the runner checks from the peers' side.
func (r *runner) excludedSites() []proto.SiteID {
	var out []proto.SiteID
	for _, j := range r.c.Sites() {
		if !r.c.Site(j).Up() {
			continue // really down; the recovery loop handles it
		}
		for _, i := range r.c.Sites() {
			si := r.c.Site(i)
			if i == j || !si.Up() || !si.Operational() {
				continue
			}
			v, _, err := si.Store.Committed(proto.NSItem(j))
			if err != nil {
				continue
			}
			if proto.Session(v) == proto.NoSession {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// copierTick refreshes at most one unreadable copy per operational,
// unstalled site: the sequential stand-in for the paper's copiers running
// concurrently with user transactions.
func (r *runner) copierTick(ctx context.Context) {
	for _, id := range r.c.Sites() {
		s := r.c.Site(id)
		if !s.Up() || !s.Operational() || s.Recovery.Stalled() {
			continue
		}
		items := s.Store.UnreadableItems()
		if len(items) == 0 {
			continue
		}
		_ = s.Recovery.CopyNow(ctx, items[0]) // failures retried next tick
	}
}

// quiesce returns the cluster to a fault-free, fully recovered, drained
// state so the invariant suite checks a stable configuration.
func (r *runner) quiesce(ctx context.Context) error {
	c := r.c
	c.Network().SetLossRate(0)
	c.Network().Heal()
	for _, id := range c.Sites() {
		c.Site(id).Recovery.SetStalled(false)
	}

	// Resolve stranded 2PC state left by crashes mid-commit, then bring
	// every site back. A recovery can still fail against stranded locks
	// on the session copies; sweeping between rounds unblocks it. A site
	// can also be up but nominally down: a type-2 claim that hit a
	// partition excludes every unreachable site (§3.4's retry), and the
	// excluded site keeps running on a stale session vector, missing every
	// later control transaction. Only the §3.4 procedure re-admits it, so
	// quiesce fail-stops such sites and recovers them like real crashes.
	for round := 0; round < 8; round++ {
		for _, id := range c.Sites() {
			if s := c.Site(id); s.Up() && s.Operational() {
				s.Janitor.Sweep(ctx)
			}
		}
		for _, id := range r.excludedSites() {
			if r.operationalPeer(id) == 0 {
				continue // never fail-stop the last working site
			}
			c.Crash(id)
			r.info.ExclusionRepairs++
		}
		allUp := true
		for _, id := range c.Sites() {
			if c.Site(id).Up() {
				continue
			}
			report, err := c.Recover(ctx, id)
			if err != nil {
				// The restarted site answers decision queries from its log
				// even though its claim failed. Sweep the operational peers
				// before fail-stopping it again: transactions it coordinated
				// and never decided resolve by presumed abort only while it
				// is reachable, and its next claim may be blocked by exactly
				// the locks those transactions strand (the janitor loop
				// would catch this window in a live deployment).
				for _, pid := range c.Sites() {
					if s := c.Site(pid); s.Up() && s.Operational() {
						s.Janitor.Sweep(ctx)
					}
				}
				c.Crash(id)
				allUp = false
				continue
			}
			r.info.Recoveries++
			r.sessions[id] = report.Session
		}
		if allUp && len(r.excludedSites()) == 0 {
			break
		}
	}
	for _, id := range c.Sites() {
		if s := c.Site(id); !s.Up() || !s.Operational() {
			return fmt.Errorf("quiesce: site %v never became operational", id)
		}
	}

	// Drain data recovery. A copy can be unreachable even now when its
	// item totally failed (every replica crashed while it was current);
	// after the regular drain stalls, run the total-failure resolver.
	for round := 0; round < 8; round++ {
		for _, id := range c.Sites() {
			c.Site(id).Janitor.Sweep(ctx)
		}
		remaining := 0
		for _, id := range c.Sites() {
			remaining += c.Site(id).Recovery.DrainNow(ctx)
		}
		if remaining == 0 {
			break
		}
		if round >= 2 {
			for _, id := range c.Sites() {
				for _, item := range c.Site(id).Store.UnreadableItems() {
					if err := c.Site(id).Recovery.ResolveTotalFailure(ctx, item); err == nil {
						r.info.TotalResolved++
					}
				}
			}
		}
	}
	// One final sweep so no resolved-but-unreleased state survives into
	// the lock and WAL invariants.
	for _, id := range c.Sites() {
		c.Site(id).Janitor.Sweep(ctx)
	}
	return nil
}
