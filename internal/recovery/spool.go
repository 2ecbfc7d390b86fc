package recovery

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/transport"
)

// RecoverSpooled executes recovery under the message-spooler baseline
// (§1's "first approach", Hammer & Shipman): the recovering site drains the
// updates it missed from the spoolers and replays them before resuming
// normal operations, so time-to-operational grows with the number of
// missed updates.
//
// The ordering argument making the final drain complete: any writer that
// misses this site commits — and therefore spools — before the type-1
// control transaction commits, because the type-1's exclusive locks on the
// NS copies wait out every session-vector share lock such a writer holds.
// Writers starting after the type-1 include this site directly (their
// operations are rejected with ErrNotOperational until the session loads,
// and they retry).
func (m *Manager) RecoverSpooled(ctx context.Context) (Report, error) {
	start := m.cfg.Clock.Now()
	report := Report{}
	m.cfg.Obs.RecoveryStart(m.cfg.Site)
	ctx = obs.WithSpan(ctx, obs.SpanContext{
		Span: obs.NewSpanID(m.cfg.Site), Origin: m.cfg.Site,
	})

	inDoubt := m.cfg.Local.RecoverInDoubt()
	report.InDoubt = len(inDoubt)
	for _, d := range inDoubt {
		m.resolveInDoubt(ctx, d)
	}

	// Bulk pre-drain shortens the post-claim critical window.
	report.Replayed += m.applySpool(ctx)

	sn, err := m.cfg.Session.ClaimUp(ctx)
	if err != nil {
		return report, fmt.Errorf("recover (spooled) %v: %w", m.cfg.Site, err)
	}

	// Final drain: catches every update spooled before the type-1 commit.
	report.Replayed += m.applySpool(ctx)

	m.cfg.Local.SetSession(sn)
	report.Session = sn
	report.TimeToOperational = m.cfg.Clock.Since(start)
	m.cfg.Obs.RecoveryDone(m.cfg.Site, sn, 0)

	// In-doubt leftovers (marked unreadable, not covered by the spool)
	// still need copiers.
	m.Flush()
	return report, nil
}

// applySpool drains the spools held for this site at every reachable peer
// and replays the updates in commit order. Replayed installs are attributed
// to a synthetic copier transaction so history analysis sees them with
// copier semantics.
func (m *Manager) applySpool(ctx context.Context) int {
	var peers []proto.SiteID
	for _, j := range m.cfg.Catalog.Sites() {
		if j != m.cfg.Site {
			peers = append(peers, j)
		}
	}
	// Drain every spooler at once, then merge their lists in commit order.
	results := transport.Fanout(peers, func(j proto.SiteID) transport.Pending {
		return m.cfg.Net.Send(ctx, m.cfg.Site, j, proto.SpoolFetchReq{For: m.cfg.Site})
	}, nil)
	var updates []proto.SpooledUpdate
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if sf, ok := r.Resp.(proto.SpoolFetchResp); ok {
			updates = append(updates, sf.Updates...)
		}
	}
	if len(updates) == 0 {
		return 0
	}
	// A spooler that crashed during this site's outage holds only the later
	// updates. Replayed first, they would make InstallDirect skip every
	// older one, and the replay would not record them.
	slices.SortStableFunc(updates, replayOrder)

	var replayTxn proto.TxnID
	if m.cfg.Recorder != nil && m.cfg.Seq != nil {
		replayTxn = m.cfg.Seq.NextTxn()
		m.cfg.Recorder.RegisterTxn(replayTxn, proto.ClassCopier)
	}

	applied := 0
	store := m.cfg.Local.Store()
	for _, u := range updates {
		if m.cfg.Seq != nil {
			// Replayed versions carry their writers' commit sequence
			// numbers; fold them in so later local commits sort above them.
			m.cfg.Seq.ObserveCommitSeq(u.CommitSeq)
		}
		installed, err := store.InstallDirect(u.Item, u.Value, proto.Version{
			Counter: u.CommitSeq, Writer: u.Writer,
		})
		if err != nil {
			continue // no local copy: a spool entry for a dropped item
		}
		if installed {
			applied++
			if replayTxn != 0 {
				m.cfg.Recorder.Write(replayTxn, u.Item, m.cfg.Site, u.Writer)
			}
		}
	}
	if replayTxn != 0 && m.cfg.Seq != nil {
		m.cfg.Recorder.Commit(replayTxn, m.cfg.Seq.NextCommitSeq())
	}
	return applied
}

// replayOrder orders spooled updates as InstallDirect orders versions
// (proto.Version.Less): by commit sequence, then writer, since two writers
// may draw the same commit sequence number.
func replayOrder(a, b proto.SpooledUpdate) int {
	return cmp.Or(cmp.Compare(a.CommitSeq, b.CommitSeq), cmp.Compare(a.Writer, b.Writer))
}

// RecoverBaseline is the instant recovery used by the non-paper strategies
// (strict ROWA never misses updates; the quorum baseline heals through
// version voting; the naive baseline deliberately skips data recovery —
// that omission is the §1 anomaly). In-doubt two-phase-commit state is
// still resolved from the stable log.
func (m *Manager) RecoverBaseline(ctx context.Context) (Report, error) {
	start := m.cfg.Clock.Now()
	report := Report{}
	m.cfg.Obs.RecoveryStart(m.cfg.Site)

	inDoubt := m.cfg.Local.RecoverInDoubt()
	report.InDoubt = len(inDoubt)
	for _, d := range inDoubt {
		m.resolveInDoubt(ctx, d)
	}

	sn := m.cfg.Local.Log().NextSession()
	m.cfg.Local.SetSession(sn)
	report.Session = sn
	report.TimeToOperational = m.cfg.Clock.Since(start)
	m.cfg.Obs.RecoveryDone(m.cfg.Site, sn, 0)
	return report, nil
}
