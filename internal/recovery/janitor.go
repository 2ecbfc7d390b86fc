package recovery

import (
	"context"
	"sync"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/dm"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/transport"
)

// JanitorConfig assembles a Janitor.
type JanitorConfig struct {
	Site    proto.SiteID
	Local   *dm.Manager
	Net     transport.Transport
	Catalog *replication.Catalog
	Clock   clock.Clock
	// Interval between sweeps. Defaults to 100ms.
	Interval time.Duration
	// StaleAge is how long an in-flight transaction may sit without
	// progress before the janitor investigates. Defaults to 500ms.
	StaleAge time.Duration
}

func (c JanitorConfig) withDefaults() JanitorConfig {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Interval == 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.StaleAge == 0 {
		c.StaleAge = 500 * time.Millisecond
	}
	return c
}

// Janitor is the cooperative-termination protocol the paper assumes from
// [9, 10]: it resolves in-flight transactions at this site whose
// coordinator has gone silent. A prepared transaction commits if any site
// witnessed a commit, aborts if the coordinator (or any witness) reports
// abort or — under presumed abort — no longer knows the transaction, and
// stays blocked only in the classic all-prepared/coordinator-down window.
// An unprepared transaction whose coordinator died can never have
// committed, so it aborts. The decisions it applies are counted where they
// land, as dm/forced.commit and dm/forced.abort.
type Janitor struct {
	cfg JanitorConfig

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewJanitor returns a janitor.
func NewJanitor(cfg JanitorConfig) *Janitor {
	return &Janitor{cfg: cfg.withDefaults()}
}

// Start launches the periodic sweep.
func (j *Janitor) Start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stop != nil {
		return
	}
	j.stop = make(chan struct{})
	j.done = make(chan struct{})
	go j.loop(j.stop, j.done)
}

// Stop shuts the sweep down and waits for it.
func (j *Janitor) Stop() {
	j.mu.Lock()
	stop, done := j.stop, j.done
	j.stop, j.done = nil, nil
	j.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (j *Janitor) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-j.cfg.Clock.After(j.cfg.Interval):
			j.Sweep(context.Background())
		case <-stop:
			return
		}
	}
}

// Sweep resolves every stale in-flight transaction it can. It is exported
// so tests and experiments can force a sweep deterministically.
func (j *Janitor) Sweep(ctx context.Context) {
	for _, st := range j.cfg.Local.StaleTxns(j.cfg.StaleAge) {
		j.resolve(ctx, st)
	}
}

func (j *Janitor) resolve(ctx context.Context, st dm.StaleTxn) {
	// Cooperative-termination traffic (decision queries, witness probes) is
	// attributed to the stale transaction's root ID.
	ctx = obs.WithSpan(ctx, obs.SpanContext{
		Root: st.Meta.ID, Span: obs.NewSpanID(j.cfg.Site), Origin: j.cfg.Site,
	})
	state, seq, reached := j.askDecision(ctx, st.Meta.Origin, st.Meta.ID)
	if !reached {
		if !st.Prepared {
			// We never voted, so the transaction cannot have committed.
			j.cfg.Local.ForceAbort(st.Meta.ID)
			return
		}
		// Coordinator unreachable: look for a witness among the other
		// sites. With none, all prepared and the coordinator down, the
		// transaction stays blocked (2PC's known window); the coordinator's
		// recovery will answer from its log.
		var decisive bool
		state, seq, decisive = witnessDecision(ctx, j.cfg.Net, j.cfg.Site, st.Meta.Origin, j.cfg.Catalog.Sites(), st.Meta.ID)
		if !decisive {
			return
		}
	}
	switch state {
	case proto.StateCommitted:
		// A failed install leaves the transaction prepared for the next
		// sweep.
		_ = j.cfg.Local.ForceCommit(st.Meta.ID, seq)
	case proto.StateAborted, proto.StateUnknown:
		// Presumed abort: a coordinator that no longer knows the
		// transaction will never commit it.
		j.cfg.Local.ForceAbort(st.Meta.ID)
	}
	// Anything else is still in progress at its coordinator.
}

// askDecision queries the coordinator, locally when this site coordinated.
func (j *Janitor) askDecision(ctx context.Context, origin proto.SiteID, id proto.TxnID) (proto.TxnState, uint64, bool) {
	var (
		resp proto.Message
		err  error
	)
	if origin == j.cfg.Site {
		resp, err = j.cfg.Local.Handle(ctx, j.cfg.Site, proto.DecisionReq{Txn: id})
	} else {
		resp, err = j.cfg.Net.Call(ctx, j.cfg.Site, origin, proto.DecisionReq{Txn: id})
	}
	if err != nil {
		return proto.StateUnknown, 0, false
	}
	dr, ok := resp.(proto.DecisionResp)
	if !ok {
		return proto.StateUnknown, 0, false
	}
	return dr.State, dr.CommitSeq, true
}
