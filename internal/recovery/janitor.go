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
// coordinator has gone silent, through the decision lookup recovery's
// in-doubt step uses too (decide). A prepared transaction commits if any
// site witnessed a commit, aborts if the coordinator (or any witness)
// reports abort or — under presumed abort — no longer knows the
// transaction, and stays blocked only in the classic
// all-prepared/coordinator-down window. An unprepared transaction whose
// coordinator died can never have committed, so it aborts. The decisions it
// applies are counted where they land, as dm/forced.commit and
// dm/forced.abort.
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
		switch state, seq := decide(ctx, j.cfg.Local, j.cfg.Net, j.cfg.Catalog, st.Meta, st.Prepared); state {
		case proto.StateCommitted:
			// A failed install leaves the transaction prepared for the next
			// sweep.
			_ = j.cfg.Local.ForceCommit(st.Meta.ID, seq)
		case proto.StateAborted:
			j.cfg.Local.ForceAbort(st.Meta.ID)
		}
		// Anything else is still open; the next sweep asks again.
	}
}

// decide is the one decision lookup: the janitor's and recovery's in-doubt
// step's alike. It asks the coordinator, through this site's own decision
// service when this site coordinated. A logged decision is final, "prepared"
// means the coordinator's TM is still deciding, and anything else is
// presumed abort. With the coordinator out of reach, a participant that
// never voted aborts, since the transaction cannot have committed; one that
// voted asks the other sites for a witness. It returns StateCommitted with
// the commit sequence number, StateAborted, or StatePrepared while the
// outcome is open: still being decided, or 2PC's blocking window, where all
// voted and no witness knows.
func decide(ctx context.Context, local *dm.Manager, net transport.Transport, cat *replication.Catalog, meta proto.TxnMeta, voted bool) (proto.TxnState, uint64) {
	// Decision traffic (the query, witness probes) is attributed to the
	// transaction's root ID, under whatever span ctx carries.
	self := local.Site()
	parent, _ := obs.SpanFrom(ctx)
	ctx = obs.WithSpan(ctx, obs.SpanContext{
		Root: meta.ID, Span: obs.NewSpanID(self), Parent: parent.Span, Origin: self,
	})
	var (
		resp proto.Message
		err  error
	)
	if meta.Origin == self {
		resp, err = local.Handle(ctx, self, proto.DecisionReq{Txn: meta.ID})
	} else {
		resp, err = net.Call(ctx, self, meta.Origin, proto.DecisionReq{Txn: meta.ID})
	}
	if dr, ok := resp.(proto.DecisionResp); err == nil && ok {
		if dr.State == proto.StateCommitted || dr.State == proto.StatePrepared {
			return dr.State, dr.CommitSeq
		}
		return proto.StateAborted, 0
	}
	if !voted {
		return proto.StateAborted, 0
	}
	return witnessDecision(ctx, net, self, meta.Origin, cat.Sites(), meta.ID)
}

// witnessDecision implements the cooperative-termination witness query: ask
// every peer (excluding self and the coordinator) for the outcome of id and
// return the first decisive answer — a commit or abort — in site order, or
// StatePrepared if none is. Where an answer is in when its send returns (the
// simulator) the queries stop at the first decisive one; otherwise all peers
// are asked at once and the scan over the ordered results picks the same
// verdict.
func witnessDecision(ctx context.Context, net transport.Transport, self, origin proto.SiteID, sites []proto.SiteID, id proto.TxnID) (proto.TxnState, uint64) {
	var peers []proto.SiteID
	for _, j := range sites {
		if j != self && j != origin {
			peers = append(peers, j)
		}
	}
	decisive := func(r *transport.Result) bool {
		dr, ok := r.Resp.(proto.DecisionResp)
		return r.Err == nil && ok && (dr.State == proto.StateCommitted || dr.State == proto.StateAborted)
	}
	results := transport.Fanout(nil, peers, func(j proto.SiteID) transport.Pending {
		return net.Send(ctx, self, j, proto.DecisionReq{Txn: id})
	}, decisive)
	for _, r := range results {
		if !decisive(&r) {
			continue
		}
		dr := r.Resp.(proto.DecisionResp)
		return dr.State, dr.CommitSeq
	}
	return proto.StatePrepared, 0
}
